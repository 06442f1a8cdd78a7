package main

import (
	"fmt"
	"math/rand"
	"runtime"

	"repro/internal/gen"
)

// Every workload uses 3-d data over 4 sites and e-DSUD (the default
// algorithm). See README.md for why each workload exists.
const (
	dims  = 3
	sites = 4
)

// heldOutSeed is the seed a later change confirms its claim on after
// tuning against other seeds. The benchmark never treats it specially; it
// is recorded in every report so the number is fixed in one place.
const heldOutSeed = 20261017

// queryKey is one query shape: threshold q and subspace (nil = full space).
type queryKey struct {
	q    float64
	dims []int
}

func (k queryKey) String() string { return fmt.Sprintf("q=%g dims=%v", k.q, k.dims) }

// spec describes one workload.
type spec struct {
	name   string
	values gen.ValueDist
	// n is the cardinality of each tenant's database. tenants is how many
	// independent databases the run samples, each on its own 4 sites and
	// its own Cluster: one n=2k database varies so much from seed to seed
	// (a 27% interquartile spread in tuples per query) that a run must
	// average over several to be comparable across seeds.
	n       int
	tenants int
	// keys is the pool of query shapes; each query draws one from the
	// seeded sequence.
	keys []queryKey
	// opsPerSecond sizes a run: it drives seconds×opsPerSecond operations,
	// a fixed seeded count, so count metrics repeat exactly for one seed.
	// For serve-churn it is the writer's fixed open-loop rate.
	opsPerSecond float64
	// serve marks the materialized serving workload.
	serve bool
	// floor is the serving tier's materialization threshold.
	floor float64
}

// clients returns the number of closed-loop client goroutines: nproc on
// proto-cpu, and on serve-churn one fewer (at least one), leaving a core to
// the writer and the sites it drives. proto-cpu with a single client left
// the CPUs idle between round trips, and its rate, bound by thread wake-up
// latency, varied by ±7% between runs of one seed on a 2-CPU VM; with
// nproc clients the CPUs stay busy and runs agree within about 2%.
func (s spec) clients() int {
	if s.serve {
		return max(1, runtime.NumCPU()-1)
	}
	return runtime.NumCPU()
}

var workloads = map[string]spec{
	"proto-cpu": {
		name: "proto-cpu", values: gen.Anticorrelated, n: 20000, tenants: 8,
		keys:         protoCPUKeys(),
		opsPerSecond: 16,
	},
	"serve-churn": {
		name: "serve-churn", values: gen.Independent, n: 10000, tenants: 16,
		opsPerSecond: 80, serve: true, floor: 0.2,
	},
}

// protoCPUKeys mixes thresholds 0.2–0.7 in the full space with three in
// one 2-d subspace, so queries share some local-skyline work but not all
// of it. The 2-d queries are all cheaper than the full-space ones; with an
// odd number of shapes and fewer 2-d ones, the median query falls inside
// one shape's latencies rather than in the gap between the two groups,
// where it would jump from seed to seed.
func protoCPUKeys() []queryKey {
	var keys []queryKey
	for _, q := range []float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.7} {
		keys = append(keys, queryKey{q: q})
	}
	for _, q := range []float64{0.3, 0.5, 0.7} {
		keys = append(keys, queryKey{q: q, dims: []int{0, 1}})
	}
	return keys
}

// subspaces returns the distinct subspaces the workload queries, with the
// lowest threshold used in each: the answer check computes one oracle pass
// per subspace and filters it per threshold.
func (s spec) subspaces() []queryKey {
	if s.serve {
		return []queryKey{{q: s.floor}}
	}
	var out []queryKey
	for _, k := range s.keys {
		found := false
		for i := range out {
			if sameDims(out[i].dims, k.dims) {
				out[i].q = min(out[i].q, k.q)
				found = true
			}
		}
		if !found {
			out = append(out, k)
		}
	}
	return out
}

func sameDims(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// rotation is the number of operations in which every tenant (and, on
// proto-cpu, every query shape of every tenant) comes up exactly once.
func (s spec) rotation() int {
	if s.serve {
		return s.tenants
	}
	return s.tenants * len(s.keys)
}

// opCount is the fixed number of operations one run drives: whole
// rotations, at least one, closest to seconds×opsPerSecond.
func (s spec) opCount(seconds int) int {
	rot := s.rotation()
	return max(1, int(float64(seconds)*s.opsPerSecond/float64(rot)+0.5)) * rot
}

// queryOp is one protocol query of a proto-cpu run.
type queryOp struct {
	tenant int
	key    int
}

// queryOps draws the run's query sequence: rotations over every (tenant,
// query shape) pair, each rotation in a seeded order. Every run of a
// workload thus has the same mix; the seed picks the data and the order.
func (s spec) queryOps(seed int64, count int) []queryOp {
	r := rand.New(rand.NewSource(seed ^ 0x51ed))
	ops := make([]queryOp, 0, count)
	for len(ops) < count {
		for _, i := range r.Perm(s.rotation()) {
			ops = append(ops, queryOp{tenant: i % s.tenants, key: i / s.tenants})
		}
	}
	return ops[:count]
}

// tenantSeed derives the data seed of one tenant.
func tenantSeed(seed int64, tenant int) int64 {
	return seed*1_000_003 + int64(tenant)*7919
}
