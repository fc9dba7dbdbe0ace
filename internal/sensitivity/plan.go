// Package sensitivity implements the perturbation-based bottleneck analysis
// the companion papers (Pompougnac, Dutilleul et al.) build on top of CPI
// stacks: perturb each tunable machine parameter around a baseline, measure
// the CPI response of every perturbed configuration, rank the parameters by
// the headroom an improvement buys, and cross-check the multi-stage CPI
// stack's predicted bounds against the measured idealization gains.
//
// The package splits into three layers:
//
//   - a plan generator (NewPlan): for every selected parameter it emits a
//     bounded set of perturbed, validated machine configurations around the
//     baseline — scaled variants (×0.5, ×2, ...) plus the paper's
//     idealized/∞ endpoints — each of which is an ordinary simulation keyed
//     by the shared content-addressed derivation (resultcache.SimKey), so
//     overlapping plans and plain simulate requests share cache entries;
//   - an orchestrator (Orchestrator.Execute): runs the plan's cells on
//     runner.Run through a pluggable per-cell runner with bounded
//     concurrency and first-error cancellation;
//   - a report builder (BuildReport): per-parameter sensitivity scores, a
//     bottleneck ranking, and the stack-bound cross-check.
package sensitivity

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"perfstacks/internal/cache"
	"perfstacks/internal/config"
	"perfstacks/internal/core"
	"perfstacks/internal/resultcache"
	"perfstacks/internal/sim"
	"perfstacks/internal/workload"
)

// Cell kinds: how a cell's machine relates to the baseline.
const (
	// KindBaseline is the unperturbed machine (always Cells[0]).
	KindBaseline = "baseline"
	// KindScale is a parameter scaled by Cell.Scale.
	KindScale = "scale"
	// KindInf is a parameter's unbounded/free endpoint (∞ resources, zero
	// penalty, uncapped bandwidth).
	KindInf = "inf"
	// KindIdeal is one of the paper's four idealizations (§IV); only these
	// carry the non-negative-gain guarantee and a stack-bound cross-check.
	KindIdeal = "ideal"
)

// Parameter is one tunable machine knob the plan generator can perturb.
type Parameter struct {
	// Name identifies the parameter in plans and reports (e.g. "rob_size").
	Name string
	// Group collects related parameters for coarse selection ("widths",
	// "queues", "caches", "mem", "bpred", "exec", "ports").
	Group string
	// Doc is a one-line description.
	Doc string

	// apply scales the knob by factor (relative to the baseline value),
	// clamping to the model's validity floors.
	apply func(m *config.Machine, factor float64)
	// inf applies the unbounded endpoint (nil = none).
	inf func(m *config.Machine)
	// ideal applies the paper idealization measuring component (nil = none).
	ideal     func(m *config.Machine)
	component core.Component
}

// Cell is one configuration of a perturbation plan.
type Cell struct {
	// Param names the perturbed Parameter ("" for the baseline cell).
	Param string
	// Variant labels the perturbation within the parameter ("x0.5", "x2",
	// "inf", "ideal", "baseline").
	Variant string
	// Kind is one of the Kind* constants.
	Kind string
	// Scale is the perturbation factor for KindScale cells (0 otherwise).
	Scale float64
	// Component is the CPI stack component this cell's idealization measures
	// (valid only for KindIdeal cells).
	Component core.Component
	// Machine is the perturbed, validated configuration.
	Machine config.Machine
}

// Plan is a fully generated perturbation plan: one workload measured on the
// baseline machine and every perturbed variant. Cells[0] is the baseline.
type Plan struct {
	// Baseline is the validated, unperturbed machine.
	Baseline config.Machine
	// Profile is the generator workload every cell runs.
	Profile workload.Profile
	// Uops is the trace length per cell, including warmup.
	Uops uint64
	// Opts are the simulation options shared by every cell. CPI accounting
	// is always on (the report's bound cross-check needs the stacks);
	// Context is ignored — runners supply a per-cell context.
	Opts sim.Options
	// Cells are the plan's configurations, baseline first.
	Cells []Cell
}

// PlanOptions selects what NewPlan generates.
type PlanOptions struct {
	// Params selects parameters by name or group name; empty means all.
	Params []string
	// Variants are the perturbation factors applied to each parameter
	// (empty means {0.5, 2}). Each must be finite, in (0, 64] and != 1.
	Variants []float64
	// NoEndpoints drops the idealized/∞ endpoint cells, leaving only the
	// scaled variants (and disables the report's bound cross-check).
	NoEndpoints bool
}

// MaxCells bounds a generated plan: large enough for every parameter at
// eight variants, small enough that one plan cannot ask for unbounded work.
const MaxCells = 2048

// maxVariants bounds PlanOptions.Variants.
const maxVariants = 8

// maxVariantFactor bounds a single perturbation factor.
const maxVariantFactor = 64

// infResource stands in for an unbounded width, queue or port count: far
// above the point where the resource can bind, small enough to simulate.
const infResource = 512

// maxPredictorBits caps the scaled predictor table sizes (2^bits entries
// are allocated per table).
const maxPredictorBits = 24

// scaleInt scales *v by factor with round-to-nearest, clamping at floor.
func scaleInt(v *int, factor float64, floor int) {
	n := int(math.Floor(float64(*v)*factor + 0.5))
	if n < floor {
		n = floor
	}
	*v = n
}

// scaleInt64 is scaleInt for int64 knobs.
func scaleInt64(v *int64, factor float64, floor int64) {
	n := int64(math.Floor(float64(*v)*factor + 0.5))
	if n < floor {
		n = floor
	}
	*v = n
}

// IdealComponents lists the CPI stack components that have a machine
// idealization knob, in stack order: the four the paper idealizes in §IV.
func IdealComponents() []core.Component {
	return []core.Component{core.CompBpred, core.CompICache, core.CompDCache, core.CompALULat}
}

// IdealizeFor maps a CPI stack component to the idealization that removes
// it. Components without a machine knob map to the identity configuration.
func IdealizeFor(c core.Component) config.Idealize {
	//simlint:partial only the four components of IdealComponents have a machine knob; the rest map to the identity config
	switch c {
	case core.CompICache:
		return config.Idealize{PerfectICache: true}
	case core.CompDCache:
		return config.Idealize{PerfectDCache: true}
	case core.CompBpred:
		return config.Idealize{PerfectBpred: true}
	case core.CompALULat:
		return config.Idealize{SingleCycleALU: true}
	}
	return config.Idealize{}
}

// cacheLevel locates one cache level's config inside a machine.
type cacheLevel struct {
	key string
	get func(m *config.Machine) *cache.Config
}

func cacheLevels() []cacheLevel {
	return []cacheLevel{
		{"l1i", func(m *config.Machine) *cache.Config { return &m.Hierarchy.L1I }},
		{"l1d", func(m *config.Machine) *cache.Config { return &m.Hierarchy.L1D }},
		{"l2", func(m *config.Machine) *cache.Config { return &m.Hierarchy.L2 }},
		{"l3", func(m *config.Machine) *cache.Config { return &m.Hierarchy.L3 }},
	}
}

// Parameters returns the full parameter registry in declaration order (the
// order is part of the plan's canonical cell sequence, so it is stable).
func Parameters() []Parameter {
	intKnob := func(name, group, doc string, get func(m *config.Machine) *int, floor int, unbounded bool) Parameter {
		p := Parameter{
			Name: name, Group: group, Doc: doc,
			apply: func(m *config.Machine, f float64) { scaleInt(get(m), f, floor) },
		}
		if unbounded {
			p.inf = func(m *config.Machine) { *get(m) = infResource }
		}
		return p
	}
	ps := []Parameter{
		intKnob("fetch_width", "widths", "uops fetched per cycle",
			func(m *config.Machine) *int { return &m.Core.FetchWidth }, 1, true),
		intKnob("dispatch_width", "widths", "uops dispatched into the ROB per cycle",
			func(m *config.Machine) *int { return &m.Core.DispatchWidth }, 1, true),
		intKnob("issue_width", "widths", "uops issued to functional units per cycle",
			func(m *config.Machine) *int { return &m.Core.IssueWidth }, 1, true),
		intKnob("commit_width", "widths", "uops committed per cycle",
			func(m *config.Machine) *int { return &m.Core.CommitWidth }, 1, true),
		intKnob("rob_size", "queues", "reorder buffer entries",
			func(m *config.Machine) *int { return &m.Core.ROBSize }, 2, true),
		intKnob("rs_size", "queues", "reservation station entries",
			func(m *config.Machine) *int { return &m.Core.RSSize }, 1, true),
		intKnob("fe_queue", "queues", "front-end queue entries",
			func(m *config.Machine) *int { return &m.Core.FEQueueSize }, 1, true),
	}
	for _, lvl := range cacheLevels() {
		lvl := lvl
		size := Parameter{
			Name: lvl.key + "_size", Group: "caches", Doc: lvl.key + " capacity in bytes",
			apply: func(m *config.Machine, f float64) {
				c := lvl.get(m)
				// At least one full set survives the shrink.
				scaleInt(&c.SizeBytes, f, cache.LineSize*c.Ways)
			},
		}
		switch lvl.key {
		case "l1i":
			size.ideal = func(m *config.Machine) { *m = m.Apply(config.Idealize{PerfectICache: true}) }
			size.component = core.CompICache
		case "l1d":
			size.ideal = func(m *config.Machine) { *m = m.Apply(config.Idealize{PerfectDCache: true}) }
			size.component = core.CompDCache
		}
		ps = append(ps, size,
			Parameter{
				Name: lvl.key + "_latency", Group: "caches", Doc: lvl.key + " hit latency in cycles",
				apply: func(m *config.Machine, f float64) { scaleInt64(&lvl.get(m).HitLatency, f, 1) },
			},
			Parameter{
				Name: lvl.key + "_mshrs", Group: "caches", Doc: lvl.key + " outstanding-miss registers",
				apply: func(m *config.Machine, f float64) { scaleInt(&lvl.get(m).MSHRs, f, 1) },
				// MSHRs = 0 is the model's "effectively unbounded".
				inf: func(m *config.Machine) { lvl.get(m).MSHRs = 0 },
			},
		)
	}
	ps = append(ps,
		Parameter{
			Name: "mem_latency", Group: "mem", Doc: "idle DRAM access latency in cycles",
			apply: func(m *config.Machine, f float64) { scaleInt64(&m.Hierarchy.Mem.Latency, f, 1) },
			inf:   func(m *config.Machine) { m.Hierarchy.Mem.Latency = 1 },
		},
		Parameter{
			Name: "mem_bandwidth", Group: "mem", Doc: "memory bandwidth (factor > 1 means more bandwidth, i.e. fewer cycles per line)",
			// Bandwidth is the inverse of CyclesPerLine, so doubling the
			// bandwidth halves the spacing.
			apply: func(m *config.Machine, f float64) { scaleInt64(&m.Hierarchy.Mem.CyclesPerLine, 1/f, 1) },
			// CyclesPerLine = 0 disables the bandwidth cap entirely.
			inf: func(m *config.Machine) { m.Hierarchy.Mem.CyclesPerLine = 0 },
		},
		Parameter{
			Name: "bpred_size", Group: "bpred", Doc: "predictor table sizes (factor 2 = one extra index bit, BTB/RAS scaled directly)",
			apply: func(m *config.Machine, f float64) {
				// Table sizes are log2-scaled: ×2 is one more index bit.
				delta := int(math.Floor(math.Log2(f) + 0.5))
				bits := func(v *int) {
					n := *v + delta
					if n < 1 {
						n = 1
					}
					if n > maxPredictorBits {
						n = maxPredictorBits
					}
					*v = n
				}
				bits(&m.Bpred.BimodalBits)
				bits(&m.Bpred.GshareBits)
				bits(&m.Bpred.ChoiceBits)
				scaleInt(&m.Bpred.BTBEntries, f, m.Bpred.BTBWays)
				scaleInt(&m.Bpred.RASEntries, f, 1)
			},
			ideal:     func(m *config.Machine) { *m = m.Apply(config.Idealize{PerfectBpred: true}) },
			component: core.CompBpred,
		},
		Parameter{
			Name: "mispredict_penalty", Group: "bpred", Doc: "frontend redirect penalty in cycles",
			apply: func(m *config.Machine, f float64) { scaleInt64(&m.Core.MispredictPenalty, f, 0) },
			inf:   func(m *config.Machine) { m.Core.MispredictPenalty = 0 },
		},
		Parameter{
			Name: "alu_latency", Group: "exec", Doc: "multi-cycle execution latencies (mul/div/FP)",
			apply: func(m *config.Machine, f float64) {
				l := &m.Core.Lat
				for _, v := range []*int64{&l.Mul, &l.Div, &l.FPAdd, &l.FPMul, &l.FPDiv, &l.FMA, &l.Broadcast} {
					scaleInt64(v, f, 1)
				}
			},
			ideal:     func(m *config.Machine) { *m = m.Apply(config.Idealize{SingleCycleALU: true}) },
			component: core.CompALULat,
		},
		intKnob("int_alus", "ports", "integer ALU ports",
			func(m *config.Machine) *int { return &m.Core.IntALUs }, 1, true),
		intKnob("int_muldivs", "ports", "integer multiply/divide ports",
			func(m *config.Machine) *int { return &m.Core.IntMulDivs }, 1, true),
		intKnob("load_ports", "ports", "load issue ports",
			func(m *config.Machine) *int { return &m.Core.LoadPorts }, 1, true),
		intKnob("store_ports", "ports", "store issue ports",
			func(m *config.Machine) *int { return &m.Core.StorePorts }, 1, true),
		intKnob("vfp_units", "ports", "vector/FP units",
			func(m *config.Machine) *int { return &m.Core.VFPUnits }, 1, true),
	)
	return ps
}

// selectParameters resolves names (parameter or group) to registry entries,
// preserving registry order and deduplicating.
func selectParameters(names []string) ([]Parameter, error) {
	all := Parameters()
	if len(names) == 0 {
		return all, nil
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	matched := make(map[string]bool, len(names))
	var out []Parameter
	for _, p := range all {
		if want[p.Name] || want[p.Group] {
			out = append(out, p)
			matched[p.Name] = true
			matched[p.Group] = true
		}
	}
	for _, n := range names {
		if !matched[n] {
			return nil, fmt.Errorf("%w: unknown sensitivity parameter or group %q", sim.ErrBadValue, n)
		}
	}
	return out, nil
}

// variantLabel formats a scale factor as a variant name ("x0.5", "x2").
func variantLabel(f float64) string {
	return "x" + strconv.FormatFloat(f, 'g', -1, 64)
}

// NewPlan generates the perturbation plan for one machine and workload.
// Every cell's machine is validated and canonicalized; perturbations that
// clamp back to the baseline (or to another variant of the same parameter)
// are dropped, so each cell measures a distinct configuration. CPI stack
// accounting is forced on: the report's ranking and bound cross-check need
// the stacks.
func NewPlan(m config.Machine, prof workload.Profile, uops uint64, opts sim.Options, po PlanOptions) (*Plan, error) {
	if uops == 0 {
		return nil, fmt.Errorf("%w: plan needs uops > 0", sim.ErrBadValue)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("%w: baseline machine: %v", sim.ErrBadValue, err)
	}
	opts.CPI = true
	opts.Context = nil
	if err := sim.ValidateOptions(opts); err != nil {
		return nil, err
	}

	params, err := selectParameters(po.Params)
	if err != nil {
		return nil, err
	}

	variants := po.Variants
	if len(variants) == 0 {
		variants = []float64{0.5, 2}
	}
	if len(variants) > maxVariants {
		return nil, fmt.Errorf("%w: at most %d variants per plan, got %d", sim.ErrBadValue, maxVariants, len(variants))
	}
	variants = append([]float64(nil), variants...)
	sort.Float64s(variants)
	for i, f := range variants {
		if math.IsNaN(f) || math.IsInf(f, 0) || f <= 0 || f > maxVariantFactor {
			return nil, fmt.Errorf("%w: variant factor %v out of range (0, %d]", sim.ErrBadValue, f, maxVariantFactor)
		}
		if f == 1 {
			return nil, fmt.Errorf("%w: variant factor 1 is the baseline", sim.ErrBadValue)
		}
		if i > 0 && variants[i-1] == f {
			return nil, fmt.Errorf("%w: duplicate variant factor %v", sim.ErrBadValue, f)
		}
	}

	baseBytes, err := sim.CanonicalMachine(m)
	if err != nil {
		return nil, err
	}
	p := &Plan{
		Baseline: m,
		Profile:  prof,
		Uops:     uops,
		Opts:     opts,
		Cells:    []Cell{{Variant: KindBaseline, Kind: KindBaseline, Machine: m}},
	}

	addCell := func(c Cell, seen map[string]bool) error {
		if err := c.Machine.Validate(); err != nil {
			return fmt.Errorf("sensitivity: %s/%s: %w", c.Param, c.Variant, err)
		}
		mb, err := sim.CanonicalMachine(c.Machine)
		if err != nil {
			return fmt.Errorf("sensitivity: %s/%s: %w", c.Param, c.Variant, err)
		}
		// A perturbation that clamps back to the baseline (or to a prior
		// variant of the same parameter) measures nothing new.
		if string(mb) == string(baseBytes) || seen[string(mb)] {
			return nil
		}
		seen[string(mb)] = true
		p.Cells = append(p.Cells, c)
		return nil
	}

	for _, par := range params {
		seen := make(map[string]bool)
		for _, f := range variants {
			mm := m
			par.apply(&mm, f)
			if err := addCell(Cell{Param: par.Name, Variant: variantLabel(f), Kind: KindScale, Scale: f, Machine: mm}, seen); err != nil {
				return nil, err
			}
		}
		if po.NoEndpoints {
			continue
		}
		if par.inf != nil {
			mm := m
			par.inf(&mm)
			if err := addCell(Cell{Param: par.Name, Variant: KindInf, Kind: KindInf, Machine: mm}, seen); err != nil {
				return nil, err
			}
		}
		if par.ideal != nil {
			mm := m
			par.ideal(&mm)
			if err := addCell(Cell{Param: par.Name, Variant: KindIdeal, Kind: KindIdeal, Component: par.component, Machine: mm}, seen); err != nil {
				return nil, err
			}
		}
	}
	if len(p.Cells) > MaxCells {
		return nil, fmt.Errorf("%w: plan has %d cells, max %d (narrow params or variants)", sim.ErrBadValue, len(p.Cells), MaxCells)
	}
	return p, nil
}

// CellKey derives cell i's content-addressed result key — the same
// derivation plain simulate requests use, so overlapping plans and
// individual runs share cache entries.
func (p *Plan) CellKey(i int) (resultcache.Key, error) {
	return resultcache.SimKey(p.Cells[i].Machine, p.Profile, p.Uops, p.Opts)
}

// Key derives the plan-level cache key for the finished report: the labeled
// sequence of cell keys plus the report schema version. Each cell key
// already binds its machine, the workload, trace length, simulation options
// and the simulator schema version, so any change that could alter the
// report changes the plan key.
func (p *Plan) Key() (resultcache.Key, error) {
	parts := make([][]byte, 0, len(p.Cells)+2)
	parts = append(parts, []byte("sensitivity-plan"), []byte(ReportSchemaVersion))
	for i := range p.Cells {
		k, err := p.CellKey(i)
		if err != nil {
			return resultcache.Key{}, err
		}
		cell := p.Cells[i]
		part := make([]byte, 0, len(cell.Param)+len(cell.Variant)+1+len(k))
		part = append(part, cell.Param...)
		part = append(part, '/')
		part = append(part, cell.Variant...)
		part = append(part, k[:]...)
		parts = append(parts, part)
	}
	return resultcache.KeyOf(parts...), nil
}
