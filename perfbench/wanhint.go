package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"idea/internal/core"
	"idea/internal/detect"
	"idea/internal/env"
	"idea/internal/id"
	"idea/internal/overlay"
	"idea/internal/resolve"
	"idea/internal/simnet"
	"idea/internal/vv"
	"idea/internal/wire"
	gen "idea/internal/workload" // schedules and the scripted participant
)

// wan-hint: the paper's setting on the deterministic emulator. 16 nodes
// over a WAN latency model; 4 writers form the top layer of 4 shared
// files, each with hint 0.95; gossip runs at its default cadence. Each
// file is one white board of the paper's section 6.1 experiments, and
// the open-loop virtual schedule follows them: every writer updates
// every file as a Poisson process with a mean gap of 5 s, and reads it
// every 5 s. After each read a scripted participant looks at the level
// and demands a resolution when it stays below its tolerance. A final
// demanded resolution per file and a drain of several gossip intervals
// follow, and then the outputs are checked.
//
// Resolution merges (resolve.MergeAll) and rollback is off. Under the
// paper's HighestID policy a writer reissues the sequence numbers of its
// discarded updates, and now and then a replica keeps a discarded update
// under a number the writer has reused: the vectors compare equal while
// the contents differ. The check catches it on some rounds of some
// seeds, which no fixed failed share can count, so the discarding paths
// are left out here (see README.md).
const (
	whNodes    = 16
	whWriters  = 4
	whFiles    = 4
	whHint     = 0.95
	whPreload  = 100               // common-history updates per file, built in set-up
	whSchedule = 300 * time.Second // virtual length of the open-loop schedule
	// Section 6.1: "the four nodes start to update the same file every 5
	// seconds". Here as a Poisson process of that mean rate per writer
	// and file, as in the repository's workload-sensitivity experiment.
	whWriteRate = 1.0 / 5
	// Reads sample every file at every writer every 5 s, half a period
	// off the write cadence, like the section 6.1 level sampling
	// (experiments.Cluster.RunSampling).
	whReadEvery  = 5 * time.Second
	whSweepAfter = 10 * time.Second // schedule end → first final resolution
	whSweepGap   = 5 * time.Second  // between the final resolutions of two files
	whDrain      = 30 * time.Second // three default gossip intervals
	whPayload    = 32
	// whVirtRounds is how many rounds feed the virtual-time metrics, so
	// they do not depend on how many rounds a run's wall time allows.
	whVirtRounds = 2
)

// whUser is the participant of the white-board example
// (examples/whiteboard): after each read it looks at the file's level
// and demands a resolution when the level was below 0.93 on two reads in
// a row. With the hint at 0.95, it speaks up only when hint-triggered
// resolution has not kept the level up.
var whUser = gen.User{Tolerance: 0.93, Patience: 1}

type opKind int

const (
	opWrite opKind = iota
	opRead
)

type wanOp struct {
	at      time.Duration
	node    id.NodeID
	file    id.FileID
	kind    opKind
	payload []byte
}

func wanFile(i int) id.FileID { return id.FileID(fmt.Sprintf("board-%d", i)) }

// wanSchedule draws the open-loop schedule of one round from rng: per
// writer and file, Poisson writes with generated payloads and periodic
// reads.
func wanSchedule(rng *rand.Rand) []wanOp {
	var ops []wanOp
	for w := 1; w <= whWriters; w++ {
		for i := 0; i < whFiles; i++ {
			f := wanFile(i)
			for _, at := range gen.PoissonTimes(rng, whWriteRate, time.Second, whSchedule) {
				payload := make([]byte, whPayload)
				rng.Read(payload)
				ops = append(ops, wanOp{at: at, node: id.NodeID(w), file: f, kind: opWrite, payload: payload})
			}
			for at := whReadEvery / 2; at <= whSchedule; at += whReadEvery {
				ops = append(ops, wanOp{at: at, node: id.NodeID(w), file: f, kind: opRead})
			}
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].at < ops[j].at })
	return ops
}

// wanCluster is one round's emulated cluster.
type wanCluster struct {
	c       *simnet.Cluster
	nodes   map[id.NodeID]*core.Node
	all     []id.NodeID
	writers []id.NodeID
	files   []id.FileID
	preload time.Duration // time spent applying the common history
}

// buildWan builds the cluster of one round: nodes, hints and the
// preloaded common history. With l set, every node runs behind the layer
// wrapper; trace, when set, receives simnet's event trace.
func buildWan(seed int64, l *layers, trace io.Writer) *wanCluster {
	all := make([]id.NodeID, whNodes)
	for i := range all {
		all[i] = id.NodeID(i + 1)
	}
	writers := all[:whWriters]
	files := make([]id.FileID, whFiles)
	top := map[id.FileID][]id.NodeID{}
	for i := range files {
		files[i] = wanFile(i)
		top[files[i]] = writers
	}
	mem := overlay.NewStatic(all, top)
	c := simnet.New(simnet.Config{Seed: seed, EventTrace: trace})
	wc := &wanCluster{c: c, nodes: map[id.NodeID]*core.Node{}, all: all, writers: writers, files: files}
	for _, nid := range all {
		n := core.NewNode(nid, core.Options{Membership: mem, All: all, DisableRansub: true,
			Resolve: resolve.Config{Policy: resolve.MergeAll}, DisableRollback: true})
		// The calibrated Formula 1 maxima of the paper experiments.
		if err := n.SetConsistencyMetric(30, 66, 300, nil); err != nil {
			panic(err)
		}
		wc.nodes[nid] = n
		var h env.Handler = n
		if l != nil {
			h = wrapHandler(n, l)
		}
		c.Add(nid, h)
	}
	for _, w := range writers {
		for _, f := range files {
			if err := wc.nodes[w].SetHint(f, whHint); err != nil {
				panic(err)
			}
		}
	}
	// Common history: every writer's replica of every file starts with
	// the same whPreload updates, stamped before the virtual epoch.
	base := vv.Stamp(c.VirtualNow().UnixNano())
	t0 := time.Now()
	for _, f := range files {
		seqs := map[id.NodeID]int{}
		hist := make([]wire.Update, whPreload)
		for i := range hist {
			w := writers[i%len(writers)]
			seqs[w]++
			hist[i] = wire.Update{File: f, Writer: w, Seq: seqs[w], At: base - vv.Stamp(whPreload-i)*vv.Stamp(time.Second),
				Op: "init", Data: []byte{byte(i)}}
		}
		for _, w := range writers {
			rep := wc.nodes[w].Store().Open(f)
			for _, u := range hist {
				rep.Apply(u)
			}
		}
	}
	wc.preload = time.Since(t0)
	c.Start()
	return wc
}

// wanWrite is one issued write as the benchmark saw it.
type wanWrite struct {
	node       id.NodeID
	file       id.FileID
	seq        int
	payload    []byte
	issued     time.Duration
	verdict    time.Duration
	hasVerdict bool
	covered    map[id.NodeID]bool
}

type nodeEvent struct {
	node id.NodeID
	file id.FileID
	at   time.Duration
}

type nodeFile struct {
	node id.NodeID
	file id.FileID
}

// wanRecorder observes one round through the node hooks: verdicts,
// adoptions, initiator outcomes and alerts. From them it derives write
// and visibility latencies.
type wanRecorder struct {
	wc        *wanCluster
	verdicts  *verdicts
	users     map[nodeFile]*gen.User
	writes    []*wanWrite
	pending   map[id.FileID][]*wanWrite // not yet visible everywhere
	belowHint []nodeEvent
	followUps []nodeEvent // outcomes, alerts and adoptions per node
	sessions  []float64   // virtual ms, completed initiator sessions
	aborted   int
	demands   int       // resolutions the participants demanded
	vis       []float64 // virtual ms
}

func newWanRecorder(wc *wanCluster) *wanRecorder {
	r := &wanRecorder{wc: wc, verdicts: newVerdicts(), users: map[nodeFile]*gen.User{},
		pending: map[id.FileID][]*wanWrite{}}
	for nid, n := range wc.nodes {
		nid := nid
		n.SetOnLevel(func(_ env.Env, file id.FileID, res detect.Result) {
			if res.Level < whHint {
				r.belowHint = append(r.belowHint, nodeEvent{nid, file, r.now()})
			}
			r.verdicts.deliver(nodeToken{nid, res.Token}, r.now())
		})
		n.SetOnResolved(func(_ env.Env, file id.FileID, _ id.NodeID) {
			r.followUps = append(r.followUps, nodeEvent{nid, file, r.now()})
			r.observe(nid, file)
		})
		n.SetOnOutcome(func(_ env.Env, o resolve.Outcome) {
			r.followUps = append(r.followUps, nodeEvent{nid, o.File, r.now()})
			if o.Aborted {
				r.aborted++
				return
			}
			r.sessions = append(r.sessions, ms(o.Phase1+o.Phase2))
		})
		n.SetOnAlert(func(_ env.Env, a core.Alert) {
			r.followUps = append(r.followUps, nodeEvent{nid, a.File, r.now()})
		})
	}
	for _, w := range wc.writers {
		for _, f := range wc.files {
			u := whUser
			r.users[nodeFile{w, f}] = &u
		}
	}
	return r
}

func (r *wanRecorder) now() time.Duration { return r.wc.c.Elapsed() }

// issued records a write the benchmark just made.
func (r *wanRecorder) issued(nid id.NodeID, u wire.Update, token int64, payload []byte) {
	w := &wanWrite{node: nid, file: u.File, seq: u.Seq, payload: payload, issued: r.now(),
		covered: map[id.NodeID]bool{nid: true}}
	r.verdicts.claim(nodeToken{nid, token}, func(at time.Duration) { w.verdict, w.hasVerdict = at, true })
	r.writes = append(r.writes, w)
	r.pending[u.File] = append(r.pending[u.File], w)
}

// observe re-reads node nid's replica of file after an adoption there;
// a write every top-layer replica holds has become visible. With
// rollback off, only resolution adoptions change a replica that a write
// did not originate on, and each ends in the hook that calls observe.
func (r *wanRecorder) observe(nid id.NodeID, file id.FileID) {
	rep := r.wc.nodes[nid].Store().Peek(file)
	if rep == nil {
		return
	}
	vec := rep.Vector()
	keep := r.pending[file][:0]
	for _, w := range r.pending[file] {
		w.covered[nid] = vec.Count(w.node) >= w.seq
		all := true
		for _, x := range r.wc.writers {
			all = all && w.covered[x]
		}
		if all {
			r.vis = append(r.vis, ms(r.now()-w.issued))
			continue
		}
		keep = append(keep, w)
	}
	r.pending[file] = keep
}

// run schedules the round's operations, then one demanded resolution per
// file and the drain, and runs the cluster to the end. It returns how
// many operations it issued: writes, reads, and the demanded
// resolutions.
func (r *wanRecorder) run(ops []wanOp, l *layers) int {
	c := r.wc.c
	for _, op := range ops {
		op := op
		n := r.wc.nodes[op.node]
		c.CallAtFile(op.at, op.node, op.file, func(e env.Env) {
			e = l.wrapEnv(e)
			switch op.kind {
			case opWrite:
				var u wire.Update
				var token int64
				l.call("write", func() { u, token = n.WriteTracked(e, op.file, "draw", op.payload, 0) })
				r.issued(op.node, u, token, op.payload)
			case opRead:
				l.call("read", func() { n.Read(op.file) })
				if r.users[nodeFile{op.node, op.file}].Observe(n.Level(op.file)) {
					r.demands++
					l.call("demand", func() { n.DemandActiveResolution(e, op.file) })
				}
			}
		})
	}
	at := whSchedule + whSweepAfter
	for i, f := range r.wc.files {
		f, w := f, r.wc.writers[i%len(r.wc.writers)]
		n := r.wc.nodes[w]
		c.CallAtFile(at, w, f, func(e env.Env) {
			e = l.wrapEnv(e)
			l.call("demand", func() { n.DemandActiveResolution(e, f) })
		})
		at += whSweepGap
	}
	c.RunUntil(at + whDrain)
	return len(ops) + r.demands + len(r.wc.files)
}

// wanReplica is one replica's end state: its vector and its updates by
// (writer, seq).
type wanReplica struct {
	vec  *vv.Vector
	data map[[2]int][]byte
}

// wanFinal reads every replica of every shared file at the end of the
// round.
func wanFinal(wc *wanCluster) map[id.FileID]map[id.NodeID]wanReplica {
	out := map[id.FileID]map[id.NodeID]wanReplica{}
	for _, f := range wc.files {
		out[f] = map[id.NodeID]wanReplica{}
		for _, nid := range wc.all {
			rep := wc.nodes[nid].Store().Peek(f)
			if rep == nil {
				continue
			}
			wr := wanReplica{vec: rep.Vector(), data: map[[2]int][]byte{}}
			for _, u := range rep.Log() {
				wr.data[[2]int{int(u.Writer), u.Seq}] = u.Data
			}
			out[f][nid] = wr
		}
	}
	return out
}

// checkWan checks one round's outputs: every replica of a file ends
// with the same vector; every write is on every replica with the
// payload the benchmark generated (no resolution discards one under
// MergeAll with rollback off); every verdict below the hint is followed at its node by a
// resolution (initiated or adopted) or an alert. It returns the
// violations. (A write without a verdict is a failed operation.)
func checkWan(writes []*wanWrite, belowHint, followUps []nodeEvent, final map[id.FileID]map[id.NodeID]wanReplica) []string {
	var bad []string
	files := make([]id.FileID, 0, len(final))
	for f := range final {
		files = append(files, f)
	}
	sort.Slice(files, func(i, j int) bool { return files[i] < files[j] })
	for _, f := range files {
		var first *vv.Vector
		var firstNode id.NodeID
		for nid, rep := range final[f] {
			if first == nil {
				first, firstNode = rep.vec, nid
				continue
			}
			if vv.Compare(first, rep.vec) != vv.Equal {
				bad = append(bad, fmt.Sprintf("%v: replicas %v and %v end with different vectors", f, firstNode, nid))
			}
		}
		if len(final[f]) == 0 {
			bad = append(bad, fmt.Sprintf("%v: no replica", f))
		}
	}
	for _, w := range writes {
		for nid, rep := range final[w.file] {
			got, ok := rep.data[[2]int{int(w.node), w.seq}]
			switch {
			case !ok:
				bad = append(bad, fmt.Sprintf("write %v/%v#%d missing on %v", w.file, w.node, w.seq, nid))
			case !bytes.Equal(got, w.payload):
				bad = append(bad, fmt.Sprintf("write %v/%v#%d has a wrong payload on %v", w.file, w.node, w.seq, nid))
			}
		}
	}
	last := map[[2]string]time.Duration{}
	for _, ev := range followUps {
		k := [2]string{fmt.Sprint(ev.node), string(ev.file)}
		if at, ok := last[k]; !ok || ev.at > at {
			last[k] = ev.at
		}
	}
	for _, ev := range belowHint {
		if at, ok := last[[2]string{fmt.Sprint(ev.node), string(ev.file)}]; !ok || at < ev.at {
			bad = append(bad, fmt.Sprintf("verdict below the hint on %v/%v at %v has no resolution or alert after it", ev.file, ev.node, ev.at))
		}
	}
	return bad
}

// wanHint accumulates the figures of every round of a run.
type wanHint struct {
	l *layers // nil unless traced

	writeLat, visLat, resolveLat []float64 // virtual ms, first whVirtRounds rounds
	writes, sessions, aborted    int64
	msgs, bytes                  map[string]int64 // simnet traffic by kind prefix
	events, ops                  int64
	timeouts, logEntries         int64
	preload                      time.Duration
	preloaded                    int64
	rounds                       int64
}

func (w *wanHint) minRounds() int { return whVirtRounds }

func (w *wanHint) round(r int, seed int64, t *tally) error {
	if t.traced && w.l == nil {
		w.l = newLayers()
	}
	if w.msgs == nil {
		w.msgs, w.bytes = map[string]int64{}, map[string]int64{}
	}
	ops := wanSchedule(rand.New(rand.NewSource(seed)))

	t0 := time.Now()
	wc := buildWan(seed, w.l, nil)
	rec := newWanRecorder(wc)
	t.setups = append(t.setups, time.Since(t0).Seconds())
	w.preload += wc.preload
	w.preloaded += whPreload * whFiles * whWriters

	win := beginWindow()
	issued := rec.run(ops, w.l)
	win.end(t, int64(issued))
	t.heapMB = append(t.heapMB, liveHeapMB())

	t.attempted += int64(issued)
	for _, wr := range rec.writes {
		if !wr.hasVerdict {
			t.failed++
		}
	}
	for _, p := range checkWan(rec.writes, rec.belowHint, rec.followUps, wanFinal(wc)) {
		t.problem("round %d: %s", r, p)
	}

	if r < whVirtRounds {
		for _, wr := range rec.writes {
			if wr.hasVerdict {
				w.writeLat = append(w.writeLat, ms(wr.verdict-wr.issued))
			}
		}
		w.visLat = append(w.visLat, rec.vis...)
		w.resolveLat = append(w.resolveLat, rec.sessions...)
	}
	w.rounds++
	w.writes += int64(len(rec.writes))
	w.sessions += int64(len(rec.sessions))
	w.aborted += int64(rec.aborted)
	w.events += int64(wc.c.Events())
	w.ops += int64(issued)
	st := wc.c.Stats()
	for _, p := range []string{"detect.", "resolve.", "gossip.", ""} {
		w.msgs[p] += int64(st.TotalMatching(p))
		w.bytes[p] += int64(st.BytesMatching(p))
	}
	for _, n := range wc.nodes {
		reg := n.Metrics()
		w.timeouts += reg.Counter("detect.timeouts_total").Value()
		w.logEntries += reg.Gauge("store.log_entries").Value()
	}
	return nil
}

func (w *wanHint) report(t *tally, m metrics) {
	if !t.traced {
		m.set("write_p50_ms", quantile(w.writeLat, 0.5))
		return
	}
	m.set("wan.virtual_write_p50_ms", quantile(w.writeLat, 0.5))
	m.set("wan.write_p99_ms", quantile(w.writeLat, 0.99))
	m.set("wan.visibility_p50_ms", quantile(w.visLat, 0.5))
	m.set("wan.visibility_p99_ms", quantile(w.visLat, 0.99))
	m.set("wan.resolve_p50_ms", quantile(w.resolveLat, 0.5))
	m.set("wan.msgs_per_write", perOp(float64(w.msgs[""]), w.writes))
	m.set("wan.bytes_per_write", perOp(float64(w.bytes[""]), w.writes))

	l := w.l
	m.set("core.write_us", l.sum(l.calls, "write").usPer(w.writes))
	reads := l.sum(l.calls, "read")
	m.set("core.read_us", reads.usPer(reads.n))
	det := l.sum(l.recv, "detect.")
	m.set("detect.handler_us_per_msg", det.usPer(det.n))
	m.set("detect.msgs_per_write", perOp(float64(w.msgs["detect."]), w.writes))
	m.set("detect.bytes_per_write", perOp(float64(w.bytes["detect."]), w.writes))
	m.set("detect.timeouts_per_kwrite", perOp(1000*float64(w.timeouts), w.writes))
	res := l.sum(l.recv, "resolve.")
	resT := l.sum(l.timer, "resolve.")
	dem := l.sum(l.calls, "demand")
	m.set("resolve.handler_us_per_session", perOp(float64(res.ns+resT.ns+dem.ns)/1e3, w.sessions))
	m.set("resolve.msgs_per_session", perOp(float64(w.msgs["resolve."]), w.sessions))
	m.set("resolve.bytes_per_session", perOp(float64(w.bytes["resolve."]), w.sessions))
	m.set("resolve.sessions_per_kwrite", perOp(1000*float64(w.sessions), w.writes))
	m.set("resolve.aborted_per_session", perOp(float64(w.aborted), w.sessions))
	m.set("store.log_entries", perOp(float64(w.logEntries), w.rounds))
	gos := l.sum(l.recv, "gossip.")
	m.set("gossip.handler_us_per_msg", gos.usPer(gos.n))
	gosT := l.sum(l.timer, "gossip.")
	m.set("gossip.timer_us_per_round", gosT.usPer(gosT.n))
	m.set("gossip.msgs_per_write", perOp(float64(w.msgs["gossip."]), w.writes))
	m.set("gossip.bytes_per_write", perOp(float64(w.bytes["gossip."]), w.writes))
	m.set("store.preload_us_per_update", perOp(float64(w.preload.Nanoseconds())/1e3, w.preloaded))
	send := l.sum(l.send, "")
	m.set("simnet.send_us_per_msg", send.usPer(send.n))
	m.set("simnet.events_per_op", perOp(float64(w.events), w.ops))
	tick := l.sum(l.timer, "core.health.tick")
	m.set("health.tick_us", tick.usPer(tick.n))
	l.codec(m)
}
