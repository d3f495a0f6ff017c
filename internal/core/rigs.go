package core

import (
	"sync"

	"ccr/internal/emu"
	"ccr/internal/ir"
	"ccr/internal/uarch"
)

// rigs holds the idle run objects of one decoded program: machines, and
// timing models per uarch.Config. A run borrows what it needs and gives it
// back once its results are extracted, so repeated runs of one program — a
// geometry sweep, a stream of serve requests — reuse the machine's memory
// image, frames and counters and the timing model's caches, BTB and frames
// instead of building them per run. Giving back recycles
// (emu.Machine.Recycle, uarch.Simulator.Reset); a run that panics gives
// nothing back, as its objects' state is unknown. A program keeps as many
// idle objects as it ever had runs in flight at once, a few tens of
// kilobytes each, until the program itself is dropped.
type rigs struct {
	mu       sync.Mutex
	machines []*emu.Machine
	sims     map[uarch.Config][]*uarch.Simulator
}

type rigsKey struct{}

// rigsOf returns prog's rigs, held on its decoded form like the memory
// image and timing table, so a relinked program starts afresh.
func rigsOf(prog *ir.Program) *rigs {
	return prog.Decoded().Ext(rigsKey{}, func(*ir.DecodedProgram) any {
		return &rigs{sims: map[uarch.Config][]*uarch.Simulator{}}
	}).(*rigs)
}

// machine borrows a machine for prog in the state emu.New builds.
func (r *rigs) machine(prog *ir.Program) *emu.Machine {
	r.mu.Lock()
	if n := len(r.machines); n > 0 {
		m := r.machines[n-1]
		r.machines = r.machines[:n-1]
		r.mu.Unlock()
		return m
	}
	r.mu.Unlock()
	return emu.New(prog)
}

// putMachine gives m back. Nothing of the run may read m afterwards: its
// Stats and Mem are reused by the next borrower.
func (r *rigs) putMachine(m *emu.Machine) {
	m.Recycle()
	r.mu.Lock()
	r.machines = append(r.machines, m)
	r.mu.Unlock()
}

// simulator borrows a timing model for prog under cfg in the state
// uarch.NewSimulator builds.
func (r *rigs) simulator(cfg uarch.Config, prog *ir.Program) *uarch.Simulator {
	r.mu.Lock()
	if idle := r.sims[cfg]; len(idle) > 0 {
		s := idle[len(idle)-1]
		r.sims[cfg] = idle[:len(idle)-1]
		r.mu.Unlock()
		return s
	}
	r.mu.Unlock()
	return uarch.NewSimulator(cfg, prog)
}

// putSimulator gives s, borrowed under cfg, back.
func (r *rigs) putSimulator(cfg uarch.Config, s *uarch.Simulator) {
	s.Reset()
	r.mu.Lock()
	r.sims[cfg] = append(r.sims[cfg], s)
	r.mu.Unlock()
}
