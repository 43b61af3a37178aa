package sim

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/partition"
)

// WorkerFate enumerates what a fault plan does to a real execution
// worker (internal/exec). Unlike the simulator's time-window faults,
// worker fates fire against *progress*: a fraction of the worker's own
// assigned work, so "kill P at 50%" means the same thing at every matrix
// size and pacing rate.
type WorkerFate uint8

const (
	// FateNone leaves the worker alone.
	FateNone WorkerFate = iota
	// FateKill makes the worker exit silently at the trigger point: its
	// heartbeats stop and its queued work is stranded until the
	// supervisor's lease expires — the in-process analogue of a crashed
	// cluster node.
	FateKill
	// FateHang makes the worker block forever at the trigger point while
	// holding its current lease — a deadlocked or livelocked node whose
	// process is alive but makes no progress and sends no heartbeats.
	FateHang
	// FateFlip makes the worker silently corrupt a single cell of each
	// computed block with the configured probability — a transient bit
	// flip (cosmic ray, marginal DRAM) producing silent data corruption
	// the supervisor's ABFT verification must detect and correct.
	FateFlip
	// FateScale makes the worker return every block scaled by a constant
	// factor — a systematic fault (broken FMA unit, wrong-firmware
	// accelerator) whose results are self-consistent, so only independent
	// supervisor-side checksums catch it. A scaling worker keeps failing
	// until the mismatch budget declares it Byzantine.
	FateScale
)

func (f WorkerFate) String() string {
	switch f {
	case FateNone:
		return "none"
	case FateKill:
		return "kill"
	case FateHang:
		return "hang"
	case FateFlip:
		return "flip"
	case FateScale:
		return "scale"
	}
	return fmt.Sprintf("WorkerFate(%d)", uint8(f))
}

// workerFault is the per-processor worker-level fault state. Liveness
// fates (kill/hang), the persistent slowdown and the corruption mode are
// independent slots: a worker can, say, scale its results and later
// hang, but it cannot both kill and hang, flip and scale, or carry two
// slowdowns.
type workerFault struct {
	fate    WorkerFate
	frac    float64 // progress fraction in [0, 1] at which the fate fires
	slow    float64 // persistent compute slowdown factor (1 = none)
	slowSet bool    // a slowdown was configured (guards duplicates even at 1×)
	corrupt WorkerFate
	cval    float64 // flip: per-block probability in (0,1]; scale: factor
}

// AddWorkerKill makes execution worker p die silently once it has
// completed frac (in [0, 1]) of its initially assigned work. Only one
// fate per processor is allowed.
func (f *FaultPlan) AddWorkerKill(p partition.Proc, frac float64) error {
	return f.setFate(p, FateKill, frac)
}

// AddWorkerHang makes execution worker p block forever (heartbeats stop,
// lease held) once it has completed frac of its initially assigned work.
func (f *FaultPlan) AddWorkerHang(p partition.Proc, frac float64) error {
	return f.setFate(p, FateHang, frac)
}

func (f *FaultPlan) setFate(p partition.Proc, fate WorkerFate, frac float64) error {
	if !p.Valid() {
		return &ConfigError{Field: "worker-fate", Reason: fmt.Sprintf("invalid processor %v", p)}
	}
	if math.IsNaN(frac) || frac < 0 || frac > 1 {
		return &ConfigError{Field: "worker-fate", Reason: fmt.Sprintf("progress fraction %v outside [0, 1]", frac)}
	}
	if f.fates == nil {
		f.fates = make(map[partition.Proc]workerFault)
	}
	wf := f.fates[p]
	if wf.fate != FateNone {
		return &ConfigError{Field: "worker-fate", Reason: fmt.Sprintf("processor %v already has a %v fate", p, wf.fate)}
	}
	wf.fate, wf.frac = fate, frac
	f.fates[p] = wf
	return nil
}

// AddWorkerSlowdown makes execution worker p compute factor× slower for
// the whole run — a persistent straggler the supervisor must not
// declare dead (the worker keeps heartbeating), so it finishes its own
// work, late.
func (f *FaultPlan) AddWorkerSlowdown(p partition.Proc, factor float64) error {
	if !p.Valid() {
		return &ConfigError{Field: "worker-slowdown", Reason: fmt.Sprintf("invalid processor %v", p)}
	}
	if math.IsNaN(factor) || factor < 1 {
		return &ConfigError{Field: "worker-slowdown", Reason: fmt.Sprintf("slowdown factor %v must be ≥ 1", factor)}
	}
	if f.fates == nil {
		f.fates = make(map[partition.Proc]workerFault)
	}
	wf := f.fates[p]
	if wf.slowSet {
		return &ConfigError{Field: "worker-slowdown", Reason: fmt.Sprintf("processor %v already has a %gx slowdown", p, wf.slow)}
	}
	wf.slow, wf.slowSet = factor, true
	f.fates[p] = wf
	return nil
}

// AddWorkerFlip makes execution worker p corrupt one random cell of each
// computed block with probability prob (in (0, 1]) — transient silent
// data corruption. Only one corruption mode per processor is allowed.
func (f *FaultPlan) AddWorkerFlip(p partition.Proc, prob float64) error {
	if math.IsNaN(prob) || prob <= 0 || prob > 1 {
		return &ConfigError{Field: "worker-flip", Reason: fmt.Sprintf("flip probability %v outside (0, 1]", prob)}
	}
	return f.setCorruption(p, FateFlip, prob, "worker-flip")
}

// AddWorkerScale makes execution worker p return every computed block
// scaled by factor — a systematic, self-consistent corruption. factor
// must be finite, positive and ≠ 1.
func (f *FaultPlan) AddWorkerScale(p partition.Proc, factor float64) error {
	if math.IsNaN(factor) || math.IsInf(factor, 0) || factor <= 0 || factor == 1 {
		return &ConfigError{Field: "worker-scale", Reason: fmt.Sprintf("scale factor %v must be finite, positive and ≠ 1", factor)}
	}
	return f.setCorruption(p, FateScale, factor, "worker-scale")
}

func (f *FaultPlan) setCorruption(p partition.Proc, mode WorkerFate, val float64, field string) error {
	if !p.Valid() {
		return &ConfigError{Field: field, Reason: fmt.Sprintf("invalid processor %v", p)}
	}
	if f.fates == nil {
		f.fates = make(map[partition.Proc]workerFault)
	}
	wf := f.fates[p]
	if wf.corrupt != FateNone {
		return &ConfigError{Field: field, Reason: fmt.Sprintf("processor %v already has a %v corruption", p, wf.corrupt)}
	}
	wf.corrupt, wf.cval = mode, val
	f.fates[p] = wf
	return nil
}

// WorkerFateFor returns the fate configured for worker p and the
// progress fraction at which it fires. A nil plan (or no fate) returns
// (FateNone, 0).
func (f *FaultPlan) WorkerFateFor(p partition.Proc) (WorkerFate, float64) {
	if f == nil || f.fates == nil {
		return FateNone, 0
	}
	wf := f.fates[p]
	return wf.fate, wf.frac
}

// WorkerSlowdown returns worker p's persistent compute slowdown factor
// (1 when none is configured, nil-safe).
func (f *FaultPlan) WorkerSlowdown(p partition.Proc) float64 {
	if f == nil || f.fates == nil {
		return 1
	}
	if wf := f.fates[p]; wf.slow > 1 {
		return wf.slow
	}
	return 1
}

// WorkerCorruption returns worker p's configured corruption mode and its
// parameter: (FateFlip, probability) for transient single-cell flips,
// (FateScale, factor) for systematic scaling, (FateNone, 0) when the
// worker is honest. Nil-safe.
func (f *FaultPlan) WorkerCorruption(p partition.Proc) (WorkerFate, float64) {
	if f == nil || f.fates == nil {
		return FateNone, 0
	}
	wf := f.fates[p]
	return wf.corrupt, wf.cval
}

// HasWorkerFaults reports whether any worker-level fault (fate or
// slowdown) is configured.
func (f *FaultPlan) HasWorkerFaults() bool {
	return f != nil && len(f.fates) > 0
}

// ParseWorkerFaults parses a comma-separated worker-fault spec into a
// fault plan, the -fault flag syntax of cmd/mmmsim:
//
//	kill:P@0.5    kill worker P at 50% of its assigned work
//	hang:R@0.3    hang worker R at 30%
//	slow:S@8      slow worker S down 8× for the whole run
//	flip:R@0.5    worker R flips one cell of each block with prob 0.5
//	scale:S@8     worker S scales every block it returns by 8×
//
// Processors are named P, R, S (case-insensitive). Each processor takes
// at most one liveness fate (kill/hang), one slowdown and one corruption
// mode (flip/scale); a duplicate in any slot is a *ConfigError.
func ParseWorkerFaults(spec string) (*FaultPlan, error) {
	fp := NewFaultPlan()
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		kind, rest, ok := strings.Cut(item, ":")
		if !ok {
			return nil, &ConfigError{Field: "fault-spec", Reason: fmt.Sprintf("%q is not kind:proc@value", item)}
		}
		procStr, valStr, ok := strings.Cut(rest, "@")
		if !ok {
			return nil, &ConfigError{Field: "fault-spec", Reason: fmt.Sprintf("%q is missing the @value part", item)}
		}
		p, err := parseProc(procStr)
		if err != nil {
			return nil, err
		}
		val, err := strconv.ParseFloat(strings.TrimSpace(valStr), 64)
		if err != nil {
			return nil, &ConfigError{Field: "fault-spec", Reason: fmt.Sprintf("bad value in %q: %v", item, err)}
		}
		switch strings.ToLower(strings.TrimSpace(kind)) {
		case "kill":
			err = fp.AddWorkerKill(p, val)
		case "hang":
			err = fp.AddWorkerHang(p, val)
		case "slow":
			err = fp.AddWorkerSlowdown(p, val)
		case "flip":
			err = fp.AddWorkerFlip(p, val)
		case "scale":
			err = fp.AddWorkerScale(p, val)
		default:
			err = &ConfigError{Field: "fault-spec", Reason: fmt.Sprintf("unknown fault kind %q (want kill, hang, slow, flip or scale)", kind)}
		}
		if err != nil {
			return nil, err
		}
	}
	return fp, nil
}

func parseProc(s string) (partition.Proc, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "P":
		return partition.P, nil
	case "R":
		return partition.R, nil
	case "S":
		return partition.S, nil
	}
	return 0, &ConfigError{Field: "fault-spec", Reason: fmt.Sprintf("unknown processor %q (want P, R or S)", s)}
}
