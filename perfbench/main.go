// Command perfbench is the repository benchmark. It runs one named
// workload against the IDEA packages, checks the program's outputs, and
// prints one JSON result line:
//
//	perfbench -workload wan-hint -seed 7 -seconds 20 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1
// the same workload and seed run with the layer wrappers and side
// measurements switched on, and the result carries the per-layer metrics.
// See README.md for the workloads, the metrics and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workload runs whole rounds. Each round sets up its own system, runs a
// measured phase and checks the program's outputs; the harness keeps
// starting rounds until the measured phases add up to the run length.
type workload interface {
	// round runs round r with its own seed and adds what it saw to the
	// workload's accumulators and to the run's tally.
	round(r int, seed int64, t *tally) error
	// minRounds is how many rounds every run completes, however long
	// they take (rounds whose figures must not depend on run length).
	minRounds() int
	// report turns the accumulators into the run's metrics.
	report(t *tally, m metrics)
}

// tally is what every workload reports per run.
type tally struct {
	traced    bool
	workdir   string
	setups    []float64     // seconds, one per round
	measured  time.Duration // wall time of the measured phases
	ops       int64         // operations completed in the measured phases
	attempted int64
	failed    int64
	problems  []string // violated output checks
	heapMB    []float64
	rt        runtimeDelta
	// Per-round rates, so one disturbed round moves the run's median
	// instead of its total.
	roundCPU, roundRate []float64
}

func (t *tally) problem(format string, args ...any) {
	if len(t.problems) < 20 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64) {
	unit, ok := units[name]
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	m[name] = metric{Value: v, Unit: unit}
}

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

var workloads = map[string]func() workload{
	"wan-hint":     func() workload { return &wanHint{} },
	"live-write":   func() workload { return &liveWrite{} },
	"restart-join": func() workload { return &restartJoin{} },
}

func main() {
	name := flag.String("workload", "", "workload name: wan-hint, live-write or restart-join")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the layer wrappers and prints per-layer metrics")
	workdir := flag.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory for journals")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	res, err := run(mk(), *seed, time.Duration(*seconds)*time.Second, *trace == 1, *workdir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run executes whole rounds of w until the measured phases cover length
// and at least w.minRounds() rounds are done.
func run(w workload, seed int64, length time.Duration, traced bool, workdir string) (result, error) {
	// One P for every workload. On a shared 2-core VM, alternating runs
	// spread less at one P than at two: live-write ops/s 5 % against
	// 17 %, wan-hint ops/s 12 % against 24 % and setup_s 4 % against 12 %.
	runtime.GOMAXPROCS(1)
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return result{}, err
	}
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	t := &tally{traced: traced, workdir: dir}
	seeds := rand.New(rand.NewSource(seed))
	for r := 0; ; r++ {
		// The previous round's garbage is collected here, not during
		// this round's set-up.
		runtime.GC()
		if err := w.round(r, seeds.Int63(), t); err != nil {
			return result{}, fmt.Errorf("round %d: %w", r, err)
		}
		if t.measured >= length && r+1 >= w.minRounds() {
			break
		}
	}
	m := metrics{}
	w.report(t, m)
	if !traced {
		m.set("setup_s", median(t.setups))
		m.set("cpu_us_per_op", median(t.roundCPU))
		m.set("ops_per_s", median(t.roundRate))
		m.set("heap_live_mb", median(t.heapMB))
	} else {
		m.set("traced.cpu_us_per_op", median(t.roundCPU))
		m.set("runtime.allocs_per_op", perOp(float64(t.rt.mallocs), t.ops))
		m.set("runtime.alloc_kb_per_op", perOp(float64(t.rt.allocBytes)/1024, t.ops))
		m.set("runtime.gc_per_kop", perOp(1000*float64(t.rt.gcs), t.ops))
		for _, name := range perLayer {
			if _, ok := m[name]; !ok {
				m.set(name, 0) // layer not exercised by this workload
			}
		}
	}
	for _, p := range t.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	return result{Correct: len(t.problems) == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// window measures one measured phase: wall time, process CPU time and
// runtime allocation counters while it is open. pause and resume leave
// the benchmark's own checks out of a phase that is interleaved with
// them. Garbage left by set-up is collected before the window opens so
// it is not charged to the measured phase.
type window struct {
	wall, cpu           time.Duration // closed segments
	mallocs, alloc, gcs uint64
	open                bool
	segWall             time.Time // open segment
	segCPU              time.Duration
	segStats            runtime.MemStats
}

func beginWindow() *window {
	runtime.GC()
	w := &window{}
	w.resume()
	return w
}

// resume opens a segment; it does nothing while one is open.
func (w *window) resume() {
	if w.open {
		return
	}
	w.open = true
	runtime.ReadMemStats(&w.segStats)
	w.segCPU = processCPU()
	w.segWall = time.Now()
}

// pause closes the open segment and adds it to the window; it does
// nothing while paused.
func (w *window) pause() {
	if !w.open {
		return
	}
	w.open = false
	w.wall += time.Since(w.segWall)
	w.cpu += processCPU() - w.segCPU
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.mallocs += ms.Mallocs - w.segStats.Mallocs
	w.alloc += ms.TotalAlloc - w.segStats.TotalAlloc
	w.gcs += uint64(ms.NumGC - w.segStats.NumGC)
}

// end closes the window and adds it to the tally with ops completed
// operations.
func (w *window) end(t *tally, ops int64) {
	w.pause()
	t.measured += w.wall
	t.ops += ops
	t.roundCPU = append(t.roundCPU, perOp(float64(w.cpu.Nanoseconds())/1e3, ops))
	t.roundRate = append(t.roundRate, float64(ops)/w.wall.Seconds())
	t.rt.mallocs += int64(w.mallocs)
	t.rt.allocBytes += int64(w.alloc)
	t.rt.gcs += int64(w.gcs)
}

type runtimeDelta struct{ mallocs, allocBytes, gcs int64 }

// liveHeapMB forces a collection and returns the live heap in MiB. The
// second collection empties what the first moved to the sync.Pool
// victim caches.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
