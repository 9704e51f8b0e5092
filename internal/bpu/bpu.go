package bpu

import (
	"pdip/internal/checkpoint"
	"pdip/internal/isa"
)

// Config sizes the branch prediction unit.
type Config struct {
	// BTBEntries is the total BTB capacity (8-way set associative).
	BTBEntries int
	// RASDepth is the return address stack depth.
	RASDepth int
}

// DefaultConfig mirrors the paper's Table 1: 8K-entry BTB.
func DefaultConfig() Config {
	return Config{BTBEntries: 8192, RASDepth: 32}
}

// Prediction is the IAG-visible outcome of predicting one branch.
type Prediction struct {
	// Taken is the predicted direction. When the BTB misses, the IAG does
	// not know a branch exists, so the prediction is always fall-through
	// (Taken == false) regardless of what TAGE would have said.
	Taken bool
	// Target is the predicted target when Taken.
	Target isa.Addr
	// BTBHit reports whether the branch was visible to the IAG at all.
	BTBHit bool
}

// Stats counts prediction events on the correct path.
type Stats = checkpoint.BPUStats

// BPU bundles TAGE, ITTAGE, the BTB and the RAS behind the single
// predict-and-train operation the IAG performs per basic block.
//
// Modelling note: the simulator trains predictors immediately at predict
// time with the actual outcome (trace-driven "immediate update", as in the
// CBP framework) and only for correct-path branches. This idealises away
// wrong-path history pollution and in-flight update delay; the mispredict
// *penalty* is still fully modelled by the pipeline's resteer machinery.
type BPU struct {
	Tage   *TAGE
	Ittage *ITTAGE
	Btb    *BTB
	Ras    *RAS

	Stats Stats
}

// New builds a BPU from cfg.
func New(cfg Config) *BPU {
	if cfg.BTBEntries == 0 {
		cfg = DefaultConfig()
	}
	return &BPU{
		Tage:   NewTAGE(),
		Ittage: NewITTAGE(),
		Btb:    NewBTB(cfg.BTBEntries),
		Ras:    NewRAS(cfg.RASDepth),
	}
}

// PredictAndTrain predicts the branch instruction in (whose actual outcome
// is known to the walker) and immediately trains the predictors with the
// actual outcome. It returns the prediction as made *before* training, so
// the caller can detect mispredicts by comparing with the actual outcome.
func (b *BPU) PredictAndTrain(in isa.Inst) Prediction {
	b.Stats.BTBLookups++
	btbTarget, _, btbHit := b.Btb.Lookup(in.PC)

	var p Prediction
	p.BTBHit = btbHit

	switch in.Kind {
	case isa.CondDirect:
		b.Stats.CondBranches++
		tageTaken := b.Tage.Predict(in.PC)
		if btbHit {
			p.Taken = tageTaken
			p.Target = btbTarget
		}
		// Train direction always; the direction outcome is architectural.
		b.Tage.Update(in.PC, in.Taken)
		b.Ittage.PushHistory(in.Taken)
		if p.Taken != in.Taken || (p.Taken && p.Target != in.Target) {
			b.Stats.CondMispredict++
		}
	case isa.UncondDirect, isa.DirectCall:
		if btbHit {
			p.Taken = true
			p.Target = btbTarget
		}
		b.Tage.PushHistory(true)
		b.Ittage.PushHistory(true)
	case isa.IndirectJump, isa.IndirectCall:
		b.Stats.IndBranches++
		if btbHit {
			p.Taken = true
			if t, ok := b.Ittage.Predict(in.PC); ok {
				p.Target = t
			} else {
				p.Target = btbTarget
			}
		}
		b.Ittage.Update(in.PC, in.Target)
		b.Tage.PushHistory(true)
		if !p.Taken || p.Target != in.Target {
			b.Stats.IndMispredict++
		}
	case isa.Return:
		b.Stats.Returns++
		if btbHit {
			p.Taken = true
			if t, ok := b.Ras.Pop(); ok {
				p.Target = t
			}
		} else {
			// The IAG cannot identify the return without a BTB hit; the
			// RAS still pops to stay aligned with the call stream.
			b.Ras.Pop()
		}
		b.Tage.PushHistory(true)
		b.Ittage.PushHistory(true)
		if !p.Taken || p.Target != in.Target {
			b.Stats.RetMispredict++
		}
	default:
		return p
	}

	if in.Kind.IsCall() {
		b.Ras.Push(in.FallThrough())
	}

	if in.Taken {
		if !btbHit {
			b.Stats.BTBMissTaken++
		}
		b.Btb.Insert(in.PC, in.Target, in.Kind)
	}
	return p
}
