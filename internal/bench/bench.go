package bench

import (
	"errors"
	"math/rand"
	"time"

	"bepi/internal/gen"
	"bepi/internal/graph"
	"bepi/internal/method"
)

// Dataset is a named benchmark graph. The suite members are synthetic
// stand-ins for the paper's real-world datasets (Table 2): community-
// overlaid R-MAT graphs (gen.Hybrid) with the same structural family —
// power-law hub-and-spoke degrees, dense core communities that slow
// random-walk mixing, and a sizeable deadend share — at increasing scale.
type Dataset struct {
	Name string
	G    *graph.Graph
}

// Size selects how big the experiment suite is.
type Size string

// Suite sizes. Tiny keeps unit tests and `go test -bench` fast; Small is a
// laptop-minutes run; Full is the EXPERIMENTS.md configuration.
const (
	Tiny  Size = "tiny"
	Small Size = "small"
	Full  Size = "full"
)

// suiteSpec maps each paper dataset name to the (scale, edgeFactor) of its
// synthetic stand-in at each size.
type suiteSpec struct {
	name      string
	scale, ef [3]int // tiny, small, full
}

var suiteSpecs = []suiteSpec{
	{"slashdot-syn", [3]int{7, 9, 13}, [3]int{5, 6, 8}},
	{"wikipedia-syn", [3]int{8, 10, 13}, [3]int{5, 8, 16}},
	{"baidu-syn", [3]int{0, 11, 14}, [3]int{0, 8, 8}},
	{"flickr-syn", [3]int{0, 12, 14}, [3]int{0, 10, 14}},
	{"livejournal-syn", [3]int{0, 0, 15}, [3]int{0, 0, 14}},
	{"wikilink-syn", [3]int{0, 0, 15}, [3]int{0, 0, 30}},
	{"twitter-syn", [3]int{0, 0, 16}, [3]int{0, 0, 22}},
	{"friendster-syn", [3]int{0, 0, 16}, [3]int{0, 0, 38}},
}

func sizeIdx(s Size) int {
	switch s {
	case Small:
		return 1
	case Full:
		return 2
	default:
		return 0
	}
}

// Suite generates the benchmark datasets at the given size, smallest first.
func Suite(size Size) []Dataset {
	idx := sizeIdx(size)
	var out []Dataset
	for i, spec := range suiteSpecs {
		if spec.scale[idx] == 0 {
			continue
		}
		g := gen.Hybrid(gen.DefaultHybrid(spec.scale[idx], spec.ef[idx], int64(1000+i)))
		out = append(out, Dataset{Name: spec.name, G: g})
	}
	return out
}

// Config parameterizes a harness run.
type Config struct {
	Size  Size
	Seeds int // query seeds per dataset (paper: 30)
	Tol   float64
	// Parallelism caps preprocessing/kernel workers (0 = shared
	// GOMAXPROCS pool, 1 = serial).
	Parallelism int
	// Budget bounds preprocessing; zero values scale with Size (see
	// withDefaults).
	Budget method.Budget
}

func (c Config) withDefaults() Config {
	if c.Size == "" {
		c.Size = Tiny
	}
	if c.Seeds <= 0 {
		switch c.Size {
		case Full:
			c.Seeds = 30
		case Small:
			c.Seeds = 10
		default:
			c.Seeds = 3
		}
	}
	if c.Tol <= 0 {
		c.Tol = 1e-9
	}
	if c.Budget.Memory == 0 {
		switch c.Size {
		case Full:
			c.Budget.Memory = 192 << 20 // 192 MiB of preprocessed data
		case Small:
			c.Budget.Memory = 24 << 20
		default:
			c.Budget.Memory = 6 << 20
		}
	}
	if c.Budget.Deadline == 0 {
		switch c.Size {
		case Full:
			c.Budget.Deadline = 120 * time.Second
		case Small:
			c.Budget.Deadline = 30 * time.Second
		default:
			c.Budget.Deadline = 10 * time.Second
		}
	}
	return c
}

// methodConfig converts the harness config into a method config.
func (c Config) methodConfig() method.Config {
	return method.Config{Tol: c.Tol, Parallelism: c.Parallelism, Budget: c.Budget}
}

// Outcome classifies how a method fared on a dataset.
type Outcome string

// Outcomes, matching the paper's bar annotations.
const (
	OK  Outcome = "ok"
	OOM Outcome = "o.o.m."
	OOT Outcome = "o.o.t."
	ERR Outcome = "error"
)

// Result is the measurement of one method on one dataset.
type Result struct {
	Method   string
	Dataset  string
	Outcome  Outcome
	PrepTime time.Duration
	Memory   int64
	AvgQuery time.Duration
	AvgIters float64
	Err      error
}

// queryCell renders the average query time or the failure marker.
func (r Result) queryCell() string {
	if r.Outcome != OK {
		return string(r.Outcome)
	}
	return FmtDuration(r.AvgQuery)
}

func (r Result) prepCell() string {
	if r.Outcome != OK {
		return string(r.Outcome)
	}
	return FmtDuration(r.PrepTime)
}

func (r Result) memCell() string {
	if r.Outcome != OK {
		return string(r.Outcome)
	}
	return FmtBytes(r.Memory)
}

// QuerySeeds returns the deterministic query seeds used for a dataset.
func QuerySeeds(g *graph.Graph, count int, salt int64) []int {
	rng := rand.New(rand.NewSource(7700 + salt))
	seeds := make([]int, count)
	for i := range seeds {
		seeds[i] = rng.Intn(g.N())
	}
	return seeds
}

// RunOne preprocesses a method on a dataset and measures its average query
// time over the given seeds, classifying budget failures.
func RunOne(m method.Method, d Dataset, seeds []int) Result {
	res := Result{Method: m.Name(), Dataset: d.Name}
	if err := m.Preprocess(d.G); err != nil {
		res.Err = err
		switch {
		case errors.Is(err, method.ErrOutOfMemory):
			res.Outcome = OOM
		case errors.Is(err, method.ErrOutOfTime):
			res.Outcome = OOT
		default:
			res.Outcome = ERR
		}
		return res
	}
	res.Outcome = OK
	res.PrepTime = m.PrepTime()
	res.Memory = m.MemoryBytes()
	var total time.Duration
	var iters int
	for _, s := range seeds {
		_, info, err := m.Query(s)
		if err != nil {
			res.Outcome = ERR
			res.Err = err
			return res
		}
		total += info.Duration
		iters += info.Iterations
	}
	if len(seeds) > 0 {
		res.AvgQuery = total / time.Duration(len(seeds))
		res.AvgIters = float64(iters) / float64(len(seeds))
	}
	return res
}

// AllMethods returns the methods compared in Figure 1(c): the
// preprocessing family plus the iterative baselines.
func AllMethods(cfg method.Config) []method.Method {
	return []method.Method{
		method.NewBePI(cfg),
		method.NewFullGMRES(cfg),
		method.NewPower(cfg),
		method.NewBear(cfg),
		method.NewLU(cfg),
	}
}

// VariantMethods returns BePI-B, BePI-S and BePI for the Figure 6 ablation.
func VariantMethods(cfg method.Config) []method.Method {
	return []method.Method{
		method.NewBePIB(cfg),
		method.NewBePIS(cfg),
		method.NewBePI(cfg),
	}
}
