package swdnn

import (
	"sync"
	"sync/atomic"

	"swcaffe/internal/sw26010"
)

// Plan memoization. The SSGD workers, the experiment tables, the layer
// Cost() paths and every GEMMRun hammer the planners with identical
// (model, op, shape) queries — and the GEMM tile search alone prices
// O(candidates^3) tilings per query. Planners are pure functions of the
// hardware model and the shape, so their results are cached
// process-wide.
//
// Keying: a plan depends on the *value* of the sw26010.Model, not on
// the pointer it is read through — two models with equal parameters
// share entries, and mutating a Model in place for a sensitivity study
// can never return a stale plan. The key does not carry that value,
// though: ten floats would cost a field-by-field hash on every query.
// modelID interns each distinct Model value to a small integer at first
// sight, and the key is that integer, the op and the shape — plain
// memory, hashed and compared in one pass.
//
// Concurrency: a sync.Map gives lock-free hits for concurrent readers.
// A racing first miss computes the entry twice; both computations are
// deterministic and identical, so whichever lands is correct.
//
// Mutation safety: Plans are stored and returned by value — a Plan is
// strings, numbers and a [3]int, so what a caller receives is its own
// copy, a hit allocates nothing, and callers may freely mutate the
// result (e.g. Col2imPlan derives from Im2colPlan's).

type planOp uint8

const (
	opGEMMPlan     planOp = iota // gemmPlanNamed -> Plan
	opGEMMNoRLC                  // GEMMPlanNoRLC -> Plan
	opConvImplicit               // ConvImplicitPlan -> Plan (aux = pass)
	opConvExplicit               // ConvExplicitPlan -> Plan (aux = pass)
	opIm2col                     // Im2colPlan -> Plan
)

// planKey is all integers with no padding, so the runtime hashes and
// compares it as one block of memory.
type planKey struct {
	tag  uint64 // modelID<<16 | op<<8 | aux
	dims [8]int
}

func newPlanKey(model uint32, op planOp, aux uint8, dims [8]int) planKey {
	return planKey{tag: uint64(model)<<16 | uint64(op)<<8 | uint64(aux), dims: dims}
}

var (
	planCache       sync.Map // planKey -> Plan
	planCacheHits   atomic.Uint64
	planCacheMisses atomic.Uint64
)

// interned is the model table behind modelID. Ids are never reused or
// dropped (ResetPlanCache empties the plans, not the table), so a key
// names the same model value for the life of the process.
var interned struct {
	last atomic.Pointer[internedModel] // the latest lookup: one compare, no hash
	mu   sync.Mutex
	ids  map[sw26010.Model]uint32
}

type internedModel struct {
	val sw26010.Model
	id  uint32
}

// modelID returns the id of hw's current value. A process prices
// almost every plan on models of one value, so the hot path compares
// hw with the last model seen and stops there.
func modelID(hw *sw26010.Model) uint32 {
	if e := interned.last.Load(); e != nil && e.val == *hw {
		return e.id
	}
	return internModel(*hw)
}

func internModel(m sw26010.Model) uint32 {
	interned.mu.Lock()
	defer interned.mu.Unlock()
	id, ok := interned.ids[m]
	if !ok {
		if interned.ids == nil {
			interned.ids = make(map[sw26010.Model]uint32)
		}
		id = uint32(len(interned.ids))
		interned.ids[m] = id
	}
	interned.last.Store(&internedModel{val: m, id: id})
	return id
}

// PlanCacheCounters reports cache hits and misses since the last
// reset (test and benchmark introspection).
func PlanCacheCounters() (hits, misses uint64) {
	return planCacheHits.Load(), planCacheMisses.Load()
}

// ResetPlanCache drops every memoized plan and zeroes the counters.
func ResetPlanCache() {
	planCache.Clear()
	planCacheHits.Store(0)
	planCacheMisses.Store(0)
}

func gemmKey(hw *sw26010.Model, op planOp, m, k, n int) planKey {
	return newPlanKey(modelID(hw), op, 0, [8]int{m, k, n})
}

func convKey(hw *sw26010.Model, op planOp, s ConvShape, pass Pass) planKey {
	return newPlanKey(modelID(hw), op, uint8(pass),
		[8]int{s.B, s.Ni, s.Ri, s.Ci, s.No, s.K, s.S, s.P})
}

// cachedPlan returns the memoized Plan for key, computing and storing
// it on first use.
func cachedPlan(key planKey, compute func() Plan) Plan {
	if v, ok := planCache.Load(key); ok {
		planCacheHits.Add(1)
		return v.(Plan)
	}
	planCacheMisses.Add(1)
	p := compute()
	planCache.Store(key, p)
	return p
}
