// Package oracle enforces the paper's central correctness contract (§3.1):
// dynamic computation reuse must be architecturally invisible. It distills
// an emulator run into a Digest of architectural observables — the final
// return value, the return-value stream at every ret, a streaming checksum
// of the store stream, a hash of the final memory image, and a full
// per-instruction trace checksum — and provides a differential checker,
// Compare, that verifies a CRB-on run produced exactly the state the
// skipped instructions would have produced.
//
// Not every component of a Digest is comparable across the CRB-off/CRB-on
// boundary: reuse hits legitimately skip instructions, so the trace
// checksum and dynamic instruction count differ by design. The invariant
// components are:
//
//   - Result: the program's final return value.
//   - MemHash/MemWords: the final data-memory image. Regions never contain
//     stores, so reuse cannot change what memory ends up holding.
//   - Stores/StoreCount: the ordered (address, value) store stream. Stores
//     execute outside regions on both sides, in the same order.
//   - Rets/RetCount: the ordered return-value stream. A function-level
//     reuse hit skips a call and its ret; the skipped ret is synthesized
//     from the region's committed outputs, which is exact unless the
//     memoized callee itself makes calls (then RetsExact is cleared and
//     Compare skips this component).
//
// Trace and DynInstrs are identity components: they only match between
// runs of the same program under the same configuration, and exist to pin
// determinism (serial vs parallel, repeated runs).
//
// The streaming components (stores, rets, trace) are folded by the
// emulator itself into an emu.Digest: the predecoded engine folds them
// inline as it executes, and the interpreter from its own event stream. A
// Collector attaches that accumulator to a Machine and seals it into a
// Digest with the result and final memory image.
package oracle

import (
	"fmt"
	"strings"

	"ccr/internal/emu"
)

// Digest summarizes the architectural behaviour of one emulator run.
type Digest struct {
	// Result is the program's final return value.
	Result int64
	// MemHash and MemWords describe the final data-memory image.
	MemHash  uint64
	MemWords int
	// Stores is the streaming checksum of the (address, value) store
	// stream; StoreCount the number of executed stores.
	Stores     uint64
	StoreCount int64
	// Rets is the streaming checksum of the return-value stream (with
	// function-level reuse hits synthesized in); RetCount its length.
	// RetsExact is false when a function-level hit skipped a callee that
	// itself makes calls, making the synthesized stream an undercount.
	Rets      uint64
	RetCount  int64
	RetsExact bool
	// Trace is the full per-instruction checksum and DynInstrs the traced
	// instruction count — identity components, not reuse-invariant.
	Trace     uint64
	DynInstrs int64
}

// Equal reports whether two digests are bit-identical across every
// component, including the configuration-sensitive identity ones.
func (d Digest) Equal(o Digest) bool { return d == o }

// Collector turns an emulator run into a Digest. The zero value is
// ready: Attach it to a Machine, run, then call Finish with the run's
// result and final memory. A Collector digests one run.
type Collector struct {
	acc emu.Digest
}

// Attach makes m fold its run into the collector (Machine.Digest).
func (c *Collector) Attach(m *emu.Machine) { m.Digest = &c.acc }

// Finish seals the digest with the run's final return value and data
// memory image.
func (c *Collector) Finish(result int64, mem []int64) Digest {
	a := &c.acc
	h := uint64(0)
	for _, w := range mem {
		h = emu.Mix(h, uint64(w))
	}
	return Digest{
		Result:     result,
		MemHash:    h,
		MemWords:   len(mem),
		Stores:     a.Stores,
		StoreCount: a.StoreCount,
		Rets:       a.Rets,
		RetCount:   a.RetCount,
		RetsExact:  !a.RetsInexact,
		Trace:      a.Trace,
		DynInstrs:  a.DynInstrs,
	}
}

// Divergence is a transparency-contract violation: one or more invariant
// digest components differ between the reference and checked runs.
type Divergence struct {
	// Components names the mismatched observables with both values.
	Components []string
}

func (d *Divergence) Error() string {
	return "oracle: architectural divergence: " + strings.Join(d.Components, "; ")
}

// Compare checks every reuse-invariant component of got against the
// reference digest ref (typically a CRB-off run of the base program). It
// returns nil when the transparency contract holds, or a *Divergence
// naming each mismatched component.
func Compare(ref, got Digest) error {
	var div Divergence
	add := func(name string, a, b any) {
		div.Components = append(div.Components, fmt.Sprintf("%s %v != %v", name, a, b))
	}
	if ref.Result != got.Result {
		add("result", ref.Result, got.Result)
	}
	if ref.MemWords != got.MemWords {
		add("mem-words", ref.MemWords, got.MemWords)
	} else if ref.MemHash != got.MemHash {
		add("mem-hash", fmt.Sprintf("%#x", ref.MemHash), fmt.Sprintf("%#x", got.MemHash))
	}
	if ref.StoreCount != got.StoreCount {
		add("store-count", ref.StoreCount, got.StoreCount)
	} else if ref.Stores != got.Stores {
		add("store-stream", fmt.Sprintf("%#x", ref.Stores), fmt.Sprintf("%#x", got.Stores))
	}
	if ref.RetsExact && got.RetsExact {
		if ref.RetCount != got.RetCount {
			add("ret-count", ref.RetCount, got.RetCount)
		} else if ref.Rets != got.Rets {
			add("ret-stream", fmt.Sprintf("%#x", ref.Rets), fmt.Sprintf("%#x", got.Rets))
		}
	}
	if len(div.Components) == 0 {
		return nil
	}
	return &div
}
