// Command ccrviz renders a function's control-flow graph in Graphviz dot
// form, with reuse regions drawn as clusters: inception blocks as
// diamonds, region members shaded, finish edges labelled. Pipe through
// `dot -Tsvg` to draw.
//
//	ccrviz -bench m88ksim -func ckbrkpts -ccr | dot -Tsvg > ckbrkpts.svg
//	ccrviz -run prog.ccr -func main
//
// The timeline subcommand merges span logs into one Chrome trace-event
// JSON file; open the output in Perfetto or chrome://tracing. With
// -journal it merges a distributed fabric sweep — every coordinator
// incarnation, every worker — ordered by the journal's commit sequence so
// the picture survives kill/resume seams. Without it, each process's
// spans are laid out on their own clock, e.g. the cycle-stamped reuse
// events of `ccrsim -spans`.
//
//	ccrviz timeline -dir RUN/spans -journal RUN/journal.jsonl -o timeline.json
//	ccrviz timeline -dir SPANS -o trace.json
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"ccr/internal/analysis"
	"ccr/internal/buildinfo"
	"ccr/internal/core"
	"ccr/internal/fabric"
	"ccr/internal/ir"
	"ccr/internal/obsv"
	"ccr/internal/workloads"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "timeline" {
		timelineMain(os.Args[2:])
		return
	}
	bench := flag.String("bench", "", "benchmark to visualize")
	scale := flag.String("scale", "tiny", "workload scale")
	ccrForm := flag.Bool("ccr", false, "visualize the CCR-transformed program")
	runFile := flag.String("run", "", "visualize a textual program file instead")
	fn := flag.String("func", "main", "function to draw")
	showVersion := flag.Bool("version", false, "print build/version info and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println(buildinfo.String())
		return
	}

	var prog *ir.Program
	switch {
	case *runFile != "":
		text, err := os.ReadFile(*runFile)
		if err != nil {
			log.Fatal(err)
		}
		prog, err = ir.Parse(string(text))
		if err != nil {
			log.Fatal(err)
		}
	case *bench != "":
		sc, err := workloads.ParseScale(*scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		b, err := workloads.Lookup(*bench, sc)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		prog = b.Prog
		if *ccrForm {
			cr, err := core.Compile(b.Prog, b.Train, core.DefaultOptions())
			if err != nil {
				log.Fatal(err)
			}
			prog = cr.Prog
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: ccrviz -bench NAME [-ccr] -func F | ccrviz -run FILE -func F")
		os.Exit(2)
	}

	f := prog.FuncByName(*fn)
	if f == nil {
		log.Fatalf("no function %q; available:", *fn)
	}
	fmt.Print(dot(prog, f))
}

// timelineMain merges span logs into a Chrome trace-event document.
func timelineMain(args []string) {
	fs := flag.NewFlagSet("ccrviz timeline", flag.ExitOnError)
	dir := fs.String("dir", "", "span-log directory (fabric, ccrd or ccrsim -spans)")
	journal := fs.String("journal", "", "fabric journal.jsonl supplying the commit-order time axis (default: each span log's own clock)")
	out := fs.String("o", "", "output file (default stdout)")
	fs.Parse(args)
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "ccrviz timeline: -dir is required")
		os.Exit(2)
	}

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "ccrviz timeline:", err)
		os.Exit(1)
	}
	procs, err := obsv.ReadSpanDir(*dir)
	if err != nil {
		fail(err)
	}
	if len(procs) == 0 {
		fmt.Fprintf(os.Stderr, "ccrviz timeline: no span logs under %s\n", *dir)
		os.Exit(1)
	}

	var cells []string
	if *journal != "" {
		var torn bool
		cells, torn, err = fabric.JournalCellOrder(*journal)
		if err != nil {
			fail(err)
		}
		if torn {
			fmt.Fprintf(os.Stderr, "ccrviz timeline: journal %s has a torn tail; using the valid prefix (%d cells)\n",
				*journal, len(cells))
		}
	}

	w := os.Stdout
	if *out != "" {
		if w, err = os.Create(*out); err != nil {
			fail(err)
		}
	}
	if *journal != "" {
		err = obsv.WriteTimeline(w, procs, cells)
	} else {
		err = obsv.WriteClockTimeline(w, procs)
	}
	if err != nil {
		fail(err)
	}
	if *out != "" {
		if err := w.Close(); err != nil {
			fail(err)
		}
		var spans int
		for _, p := range procs {
			spans += len(p.Spans)
		}
		fmt.Fprintf(os.Stderr, "ccrviz timeline: %d procs, %d spans, %d journal cells -> %s\n",
			len(procs), spans, len(cells), *out)
	}
}

// dot renders one function as a Graphviz digraph.
func dot(p *ir.Program, f *ir.Func) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n", f.Name)
	sb.WriteString("  node [shape=box fontname=monospace fontsize=9];\n")

	// Region membership for shading; inception blocks for shaping.
	memberOf := map[ir.BlockID]ir.RegionID{}
	inceptionOf := map[ir.BlockID]ir.RegionID{}
	for _, rg := range p.Regions {
		if rg.Func != f.ID {
			continue
		}
		inceptionOf[rg.Inception] = rg.ID
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				if b.Instrs[i].Region == rg.ID && b.Instrs[i].Op != ir.Reuse {
					memberOf[b.ID] = rg.ID
					break
				}
			}
		}
		if rg.Kind == ir.FuncLevel {
			memberOf[rg.Body] = rg.ID
		}
	}

	for _, b := range f.Blocks {
		var lines []string
		for i := range b.Instrs {
			lines = append(lines, b.Instrs[i].String())
		}
		label := fmt.Sprintf("b%d\\l%s\\l", b.ID, strings.Join(lines, "\\l"))
		var attrs string
		if rid, ok := inceptionOf[b.ID]; ok {
			attrs = fmt.Sprintf("label=\"b%d: reuse region%d\" shape=diamond style=filled fillcolor=gold", b.ID, rid)
		} else if rid, ok := memberOf[b.ID]; ok {
			attrs = fmt.Sprintf("label=%q style=filled fillcolor=lightblue tooltip=\"region %d\"", label, rid)
		} else {
			attrs = fmt.Sprintf("label=%q", label)
		}
		fmt.Fprintf(&sb, "  b%d [%s];\n", b.ID, attrs)
	}

	g := analysis.BuildCFG(f)
	for _, b := range f.Blocks {
		t := b.Terminator()
		for _, s := range g.Succs[b.ID] {
			attr := ""
			if t != nil {
				switch {
				case t.Op == ir.Reuse && s == t.Target:
					attr = " [label=hit color=darkgreen]"
				case t.Op == ir.Reuse:
					attr = " [label=miss color=red]"
				case t.Attr.Has(ir.AttrRegionEnd) && s == regionCont(p, t.Region):
					attr = " [label=finish color=darkgreen]"
				case t.Attr.Has(ir.AttrRegionExit) && !sameRegion(p, f, t.Region, s):
					attr = " [label=exit color=red style=dashed]"
				}
			}
			fmt.Fprintf(&sb, "  b%d -> b%d%s;\n", b.ID, s, attr)
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

func regionCont(p *ir.Program, id ir.RegionID) ir.BlockID {
	if r := p.Region(id); r != nil {
		return r.Continuation
	}
	return ir.NoBlock
}

func sameRegion(p *ir.Program, f *ir.Func, id ir.RegionID, b ir.BlockID) bool {
	blk := f.Block(b)
	if blk == nil {
		return false
	}
	for i := range blk.Instrs {
		if blk.Instrs[i].Region == id {
			return true
		}
	}
	return false
}
