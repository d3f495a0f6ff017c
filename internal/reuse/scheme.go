// Package reuse is the scheme-neutral layer above the concrete reuse
// backends. The repo started as a reproduction of one mechanism — the
// paper's compiler-directed region reuse (CCR, internal/crb) — and this
// package generalizes that seam into a pluggable architecture: a reuse
// *scheme* names which backends are attached to the emulator, and a
// canonical Config.Key() makes every cache, store and fabric artifact
// scheme-qualified so results from different mechanisms can never alias.
//
// Two backends exist today:
//
//   - ccr: the compiler-marked region scheme of the source paper. Regions
//     are chosen at compile time, lookups happen at explicit Reuse
//     instructions, invalidation at explicit Inval instructions. The
//     backend lives in internal/crb; this package only routes to it.
//   - dtm: dynamic trace memoization in the spirit of the decanting study
//     (arXiv 1711.06672). Traces are straight-line runs the predecoder
//     already maps (ir.DecodedFunc.RunEnd), formed at runtime with no
//     compiler support, keyed by head PC + input-register signature, and
//     invalidated by watching stores. The backend is reuse.DTM.
//
// "both" attaches the two simultaneously (DTM runs over the CCR-transformed
// program, so explicit Reuse/Inval instructions shorten the runs DTM can
// trace — an honest interaction, not an idealized sum), and "off" attaches
// neither, which is bit-identical to a plain baseline run.
package reuse

import (
	"fmt"

	"ccr/internal/crb"
)

// Scheme selects which reuse backends a simulation attaches.
type Scheme string

const (
	// Off attaches no reuse machinery: the plain baseline run.
	Off Scheme = "off"
	// CCRScheme attaches the paper's compiler-directed region scheme.
	CCRScheme Scheme = "ccr"
	// DTMScheme attaches dynamic trace memoization over the base program.
	DTMScheme Scheme = "dtm"
	// BothSchemes attaches CCR and DTM together over the transformed
	// program.
	BothSchemes Scheme = "both"
)

// Schemes lists every valid scheme in canonical order.
func Schemes() []Scheme { return []Scheme{Off, CCRScheme, DTMScheme, BothSchemes} }

// ParseScheme validates a user-supplied scheme name.
func ParseScheme(s string) (Scheme, error) {
	switch Scheme(s) {
	case Off, CCRScheme, DTMScheme, BothSchemes:
		return Scheme(s), nil
	}
	return "", fmt.Errorf("reuse: unknown scheme %q (want off, ccr, dtm or both)", s)
}

// UsesCCR reports whether the scheme attaches the region-reuse backend —
// which also decides that the simulated program is the CCR-transformed one
// (Reuse/Inval instructions present) rather than the baseline.
func (s Scheme) UsesCCR() bool { return s == CCRScheme || s == BothSchemes }

// UsesDTM reports whether the scheme attaches the trace-memoization
// backend.
func (s Scheme) UsesDTM() bool { return s == DTMScheme || s == BothSchemes }

// Config is a complete scheme-qualified reuse configuration: which backends
// run and with what geometry. The zero value is Scheme "" — callers must
// set a scheme explicitly; use CCR() for the historical single-scheme case.
type Config struct {
	Scheme Scheme     `json:"scheme"`
	CRB    crb.Config `json:"crb,omitempty"`
	DTM    DTMConfig  `json:"dtm,omitempty"`
}

// CCR wraps a bare CRB geometry in the historical single-scheme
// configuration. Every pre-existing call site that swept crb.Config routes
// through this.
func CCR(cc crb.Config) Config { return Config{Scheme: CCRScheme, CRB: cc} }

// DTMOnly builds a dtm-scheme configuration from a trace-buffer geometry.
func DTMOnly(tc DTMConfig) Config { return Config{Scheme: DTMScheme, DTM: tc} }

// Both attaches the two backends together.
func Both(cc crb.Config, tc DTMConfig) Config {
	return Config{Scheme: BothSchemes, CRB: cc, DTM: tc}
}

// Key is the canonical cache identity of the configuration. The scheme name
// is always the first component, and each backend's geometry key appears
// only when that backend is attached — so a DTM artifact can never alias a
// CCR artifact even when the numeric geometries coincide, and "off" has
// exactly one key. Irrelevant geometry fields (e.g. a CRB config carried in
// a dtm-scheme Config) are deliberately excluded: they cannot affect the
// simulation, so they must not fragment the cache.
func (c Config) Key() string {
	switch c.Scheme {
	case Off:
		return "off"
	case CCRScheme:
		return "ccr|" + c.CRB.Key()
	case DTMScheme:
		return "dtm|" + c.DTM.Key()
	case BothSchemes:
		return "both|" + c.CRB.Key() + "|" + c.DTM.Key()
	}
	return "invalid|" + string(c.Scheme)
}
