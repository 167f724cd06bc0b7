package exec

import (
	"skandium/internal/event"
	"skandium/internal/plan"
)

// fusedInst interprets one fused serial chain (plan.FusedProg) as a single
// instruction: the chain's seq, farm, pipe and for activations run
// back-to-back from one program counter, replacing their per-activation
// push/pop. The micro-op list replays exactly the instruction sequence the
// per-step interpreter would execute — same event order, same
// activation-index allocation order, same Call per execute muscle — so a
// fused run is observably identical. At each FBody the instruction
// re-pushes itself under the execute's Call and resumes at the same pc,
// closing that seq activation, once the call has run.
//
// Instances are per-activation scratch recycled through the chain's
// program-owned arena (FusedProg.Scratch), so steady-state execution of a
// fused chain allocates nothing.
type fusedInst struct {
	prog   *plan.FusedProg
	parent int64
	pc     int
	inBody bool   // resumed after the FBody at pc: its Call has run
	frames []actx // open activations, innermost last
}

// fusedFor builds the entry instruction for one activation of a fused
// chain, drawing scratch from the chain's arena.
func fusedFor(fp *plan.FusedProg, parent int64) Instr {
	in, _ := fp.Scratch().Get().(*fusedInst)
	if in == nil {
		in = &fusedInst{frames: make([]actx, 0, fp.MaxFrames())}
	}
	in.prog, in.parent = fp, parent
	return in
}

func (in *fusedInst) release() {
	fp := in.prog
	in.prog, in.parent, in.pc, in.inBody = nil, 0, 0, false
	in.frames = in.frames[:0]
	fp.Scratch().Put(in)
}

func (in *fusedInst) interpret(w *Worker, t *Task) ([]*Task, error) {
	r := t.root
	ops := in.prog.Ops()
	if in.inBody {
		in.inBody = false
		in.closeFrame(w, t)
		in.pc++
	}
	for ; in.pc < len(ops); in.pc++ {
		// The per-step interpreter checks for cancellation between
		// instructions; mirror that between micro-ops. Step sees the
		// canceled root and retires the task.
		if r.Canceled() {
			break
		}
		op := &ops[in.pc]
		switch op.Code {
		case plan.FBegin:
			parent := in.parent
			if n := len(in.frames); n > 0 {
				parent = in.frames[n-1].idx
			}
			in.frames = append(in.frames, begin(op.Step, parent, op.Step.Trace(), w, t))
		case plan.FBody:
			in.inBody = true
			t.push(in)
			pushCall(t, in.frames[len(in.frames)-1], op.Step.Exec(), t.param, nil, 0)
			return nil, nil
		case plan.FEnd:
			in.closeFrame(w, t)
		case plan.FNestedBegin, plan.FNestedEnd:
			when := event.Before
			if op.Code == plan.FNestedEnd {
				when = event.After
			}
			t.param = in.frames[len(in.frames)-1].em(r, w).emit(when, event.NestedSkel, t.param, func(e *event.Event) {
				e.Branch, e.Iter = op.Branch, op.Iter
			})
		}
	}
	in.release()
	return nil, nil
}

// closeFrame raises the Skeleton/After event of the innermost open
// activation and pops it.
func (in *fusedInst) closeFrame(w *Worker, t *Task) {
	a := in.frames[len(in.frames)-1]
	t.param = a.em(t.root, w).emit(event.After, event.Skeleton, t.param, nil)
	in.frames = in.frames[:len(in.frames)-1]
}
