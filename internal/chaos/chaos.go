// Package chaos is a deterministic, seeded fault injector for the
// Computation Reuse Buffer. An Injector wraps the real *crb.CRB behind the
// emulator's ReuseBuffer interface and perturbs one class of hardware
// fault per run: corrupted recorded outputs, dropped invalidations, stale
// memory-valid bits, spurious input matches, or entries reclaimed while
// being read.
//
// The injector exists to prove the transparency oracle (internal/oracle)
// is non-vacuous: every fault class it can introduce violates the paper's
// §3.1 architectural-invisibility contract in a way the oracle's
// differential check must detect. It is a test instrument — nothing in
// the production pipeline constructs one.
package chaos

import (
	"fmt"

	"ccr/internal/crb"
	"ccr/internal/ir"
)

// Fault selects the injected fault class.
type Fault int

const (
	// None delegates every operation unchanged (control runs).
	None Fault = iota
	// CorruptOutput flips a bit in one recorded output value at commit,
	// modelling a bad write into the instance's output bank.
	CorruptOutput
	// DropInvalidation swallows computation-invalidate operations,
	// modelling a lost invalidation message.
	DropInvalidation
	// StaleMemValid resurrects a properly invalidated memory-dependent
	// instance on a later input-matching lookup, modelling a stuck
	// memory-valid bit.
	StaleMemValid
	// SpuriousHit satisfies a missing lookup from a recorded instance
	// whose inputs do NOT match, modelling a broken input comparator.
	SpuriousHit
	// EvictDuringRead returns a hit whose output bank was already
	// reclaimed, modelling an entry evicted while being read.
	EvictDuringRead
)

// AllFaults lists every injectable fault class (excluding None).
var AllFaults = []Fault{CorruptOutput, DropInvalidation, StaleMemValid, SpuriousHit, EvictDuringRead}

func (f Fault) String() string {
	switch f {
	case None:
		return "none"
	case CorruptOutput:
		return "corrupt-output"
	case DropInvalidation:
		return "drop-invalidation"
	case StaleMemValid:
		return "stale-mem-valid"
	case SpuriousHit:
		return "spurious-hit"
	case EvictDuringRead:
		return "evict-during-read"
	}
	return fmt.Sprintf("fault(%d)", int(f))
}

// Config selects what to inject and when. Injection sites are chosen by a
// seeded splitmix64 stream, so a (Fault, Seed, Rate) triple reproduces the
// exact same fault schedule on every run.
type Config struct {
	Fault Fault
	Seed  uint64
	// Rate is the probability an eligible operation is faulted; the zero
	// value means 1 (every eligible operation).
	Rate float64
}

// Stats counts injector activity.
type Stats struct {
	// Eligible counts operations the fault class could have perturbed;
	// Injected counts the ones actually perturbed.
	Eligible, Injected int
}

// sampler is the seeded fault scheduler shared by the CRB and DTM
// injectors: a splitmix64 stream plus the Rate gate and counters.
type sampler struct {
	cfg   Config
	state uint64
	stats Stats
}

// next advances the seeded splitmix64 stream.
func (s *sampler) next() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// fire decides whether the current eligible operation is faulted.
func (s *sampler) fire() bool {
	s.stats.Eligible++
	rate := s.cfg.Rate
	if rate <= 0 {
		rate = 1
	}
	if rate < 1 && float64(s.next()>>11)/float64(1<<53) >= rate {
		return false
	}
	s.stats.Injected++
	return true
}

// Injector wraps a CRB, injecting the configured fault class. It
// implements emu.ReuseBuffer and keeps its contract: it clones an
// instance before perturbing or shadowing it, so it never writes the
// buffer's banks or retains the machine's.
type Injector struct {
	sampler
	crb *crb.CRB
	// shadow holds copies of committed instances per region, the raw
	// material for StaleMemValid and SpuriousHit resurrections.
	shadow map[ir.RegionID][]crb.Instance
}

// shadowCap bounds the retained instance copies per region.
const shadowCap = 64

// Wrap builds an injector around c.
func Wrap(c *crb.CRB, cfg Config) *Injector {
	return &Injector{sampler: sampler{cfg: cfg, state: cfg.Seed}, crb: c, shadow: map[ir.RegionID][]crb.Instance{}}
}

// Stats returns the injection counters.
func (in *Injector) Stats() Stats { return in.stats }

// cloneInstance deep-copies an instance so perturbing the copy never
// corrupts real CRB state.
func cloneInstance(ci *crb.Instance) crb.Instance {
	out := *ci
	out.Inputs = append([]crb.RegVal(nil), ci.Inputs...)
	out.Outputs = append([]crb.RegVal(nil), ci.Outputs...)
	return out
}

// Lookup delegates to the CRB, then perturbs the outcome for the
// lookup-side fault classes.
func (in *Injector) Lookup(region ir.RegionID, regs []int64) (*crb.Instance, bool) {
	ci, ok := in.crb.Lookup(region, regs)
	switch in.cfg.Fault {
	case EvictDuringRead:
		if ok && in.fire() {
			// The entry was reclaimed mid-read: the output bank the
			// hardware latched is already zeroed.
			ghost := cloneInstance(ci)
			for i := range ghost.Outputs {
				ghost.Outputs[i].Val = 0
			}
			return &ghost, true
		}
	case SpuriousHit:
		if !ok {
			if sh := in.shadow[region]; len(sh) > 0 && in.fire() {
				// Input comparator failure: any recorded instance
				// "matches", inputs be damned.
				ghost := cloneInstance(&sh[0])
				return &ghost, true
			}
		}
	case StaleMemValid:
		if !ok {
			for i := range in.shadow[region] {
				sh := &in.shadow[region][i]
				if !sh.UsesMem || !inputsMatch(sh, regs) {
					continue
				}
				if in.fire() {
					// The memory-valid bit never cleared: a properly
					// invalidated instance satisfies the lookup.
					ghost := cloneInstance(sh)
					return &ghost, true
				}
				break
			}
		}
	}
	return ci, ok
}

func inputsMatch(ci *crb.Instance, regs []int64) bool {
	for _, rv := range ci.Inputs {
		if regs[rv.Reg] != rv.Val {
			return false
		}
	}
	return true
}

// Commit perturbs the recorded instance for CorruptOutput, records shadow
// copies for the resurrection faults, and delegates.
func (in *Injector) Commit(region ir.RegionID, inst crb.Instance) bool {
	if in.cfg.Fault == CorruptOutput && len(inst.Outputs) > 0 && in.fire() {
		inst = cloneInstance(&inst)
		slot := int(in.next() % uint64(len(inst.Outputs)))
		inst.Outputs[slot].Val ^= int64(in.next() | 1)
	}
	if in.cfg.Fault == StaleMemValid || in.cfg.Fault == SpuriousHit {
		if sh := in.shadow[region]; len(sh) < shadowCap {
			in.shadow[region] = append(sh, cloneInstance(&inst))
		}
	}
	return in.crb.Commit(region, inst)
}

// Invalidate swallows the operation under DropInvalidation, else
// delegates.
func (in *Injector) Invalidate(m ir.MemID) int {
	if in.cfg.Fault == DropInvalidation && in.fire() {
		return 0
	}
	return in.crb.Invalidate(m)
}
