package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"idea/internal/core"
	"idea/internal/env"
	"idea/internal/id"
	"idea/internal/overlay"
	"idea/internal/store"
	"idea/internal/wire"
)

// live-write: the real runtime's write path. Two live nodes in one
// process over loopback TCP are both in the top layer of every file;
// each runs one shard and a group-commit journal; gossip and RanSub are
// off. Two closed-loop issuers write into node 1, each waiting for its
// write's detection verdict (a round trip to node 2) before the next.
const (
	lwFiles       = 64
	lwIssuers     = 2
	lwPayload     = 64
	lwWarmup      = 1000  // writes per round before the measured window
	lwMeasured    = 30000 // writes per round in the measured window
	lwGroupCommit = 8     // the live facade's default
)

func lwFile(i int) id.FileID { return id.FileID(fmt.Sprintf("doc-%02d", i)) }

// lwWrite is one write as its issuer made it.
type lwWrite struct {
	file    id.FileID
	seq     int
	payload []byte
}

// lwIssuer is one closed-loop client: it writes into its own half of
// the files, each write a generated payload.
type lwIssuer struct {
	rng    *rand.Rand
	files  []id.FileID
	writes []lwWrite
	lat    []float64 // ms, measured window only
}

type liveWrite struct {
	l        *layers
	p50, p99 []float64 // ms, per round
	writes   int64
	frames   int64
	bytes    int64
	dropped  int64
	queueUS  []float64
	fsyncMS  []float64
	encUS    []float64
	decUS    []float64
	appendNS int64
	appended int64
}

func (w *liveWrite) minRounds() int { return 1 }

func (w *liveWrite) round(r int, seed int64, t *tally) error {
	if t.traced && w.l == nil {
		w.l = newLayers()
	}
	dir, err := os.MkdirTemp(t.workdir, "live-write-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	t0 := time.Now()
	nodes, err := w.cluster(dir)
	if err != nil {
		return err
	}
	defer func() {
		for _, ln := range nodes {
			ln.close()
		}
	}()
	n1 := nodes[0]
	v := watchVerdicts(n1.n)
	rng := rand.New(rand.NewSource(seed))
	issuers := make([]*lwIssuer, lwIssuers)
	for k := range issuers {
		is := &lwIssuer{rng: rand.New(rand.NewSource(rng.Int63()))}
		for i := k; i < lwFiles; i += lwIssuers {
			is.files = append(is.files, lwFile(i))
		}
		issuers[k] = is
	}
	w.drive(n1, v, issuers, lwWarmup/lwIssuers, false)
	t.setups = append(t.setups, time.Since(t0).Seconds())

	win := beginWindow()
	w.drive(n1, v, issuers, lwMeasured/lwIssuers, true)
	win.end(t, lwMeasured)
	if r == 0 {
		// One sample per run: later rounds also count the transports of
		// the previous round, which their pending timers keep reachable.
		t.heapMB = append(t.heapMB, liveHeapMB())
	}
	t.attempted += lwWarmup + lwMeasured

	for _, p := range checkLiveWrite(issuers, replicaLogs(n1, lwFiles)) {
		t.problem("round %d: %s", r, p)
	}
	var lat []float64
	for _, is := range issuers {
		lat = append(lat, is.lat...)
	}
	w.p50 = append(w.p50, quantile(lat, 0.5))
	w.p99 = append(w.p99, quantile(lat, 0.99))
	// Traffic counters run from node start, so per-write ratios count
	// the warm-up writes too.
	w.writes += lwWarmup + lwMeasured
	if t.traced {
		w.layerRound(nodes, issuers, dir)
	}
	return nil
}

// cluster starts the two nodes of a round, each with its journal in
// dir, and connects them.
func (w *liveWrite) cluster(dir string) ([]*liveNode, error) {
	all := []id.NodeID{1, 2}
	top := map[id.FileID][]id.NodeID{}
	for i := 0; i < lwFiles; i++ {
		top[lwFile(i)] = all
	}
	mem := overlay.NewStatic(all, top)
	var nodes []*liveNode
	for _, nid := range all {
		wal, err := store.OpenWAL(filepath.Join(dir, fmt.Sprint(nid)))
		if err != nil {
			return nodes, err
		}
		wal.SetGroupCommit(lwGroupCommit)
		ln, err := startLive(nid, liveConfig{opts: core.Options{Membership: mem, All: all, Shards: 1,
			DisableGossip: true, DisableRansub: true, Journal: wal}}, w.l)
		if err != nil {
			wal.Close()
			return nodes, err
		}
		nodes = append(nodes, ln)
	}
	nodes[0].tn.AddPeer(2, nodes[1].tn.Addr())
	nodes[1].tn.AddPeer(1, nodes[0].tn.Addr())
	return nodes, nil
}

// drive runs every issuer in its own goroutine for n writes each and
// waits for them; timed records the writes' latencies.
func (w *liveWrite) drive(n1 *liveNode, v *verdicts, issuers []*lwIssuer, n int, timed bool) {
	var wg sync.WaitGroup
	for _, is := range issuers {
		wg.Add(1)
		go func(is *lwIssuer) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				file := is.files[is.rng.Intn(len(is.files))]
				payload := make([]byte, lwPayload)
				is.rng.Read(payload)
				t0 := time.Now()
				var u wire.Update
				var token int64
				n1.call(file, func(e env.Env) {
					e = w.l.wrapEnv(e)
					w.l.call("write", func() { u, token = n1.n.WriteTracked(e, file, "put", payload, 0) })
				})
				<-v.await(n1.n, token)
				if timed {
					is.lat = append(is.lat, ms(time.Since(t0)))
				}
				is.writes = append(is.writes, lwWrite{file: file, seq: u.Seq, payload: payload})
			}
		}(is)
	}
	wg.Wait()
}

// replicaLogs reads node ln's log of each of the first files files.
func replicaLogs(ln *liveNode, files int) map[id.FileID][]wire.Update {
	out := map[id.FileID][]wire.Update{}
	for i := 0; i < files; i++ {
		f := lwFile(i)
		ln.call(f, func(env.Env) { out[f] = ln.n.Store().Open(f).Log() })
	}
	return out
}

// checkLiveWrite checks that node 1's replica of each file holds exactly
// the writes issued to it, in order, with sequence numbers 1, 2, ... and
// the generated payloads.
func checkLiveWrite(issuers []*lwIssuer, logs map[id.FileID][]wire.Update) []string {
	want := map[id.FileID][]lwWrite{}
	for _, is := range issuers {
		for _, wr := range is.writes {
			want[wr.file] = append(want[wr.file], wr)
		}
	}
	var bad []string
	for f, log := range logs {
		ws := want[f]
		if len(log) != len(ws) {
			bad = append(bad, fmt.Sprintf("%v holds %d updates, %d were written", f, len(log), len(ws)))
			continue
		}
		for i, u := range log {
			switch {
			case u.Seq != i+1 || u.Writer != 1:
				bad = append(bad, fmt.Sprintf("%v update %d is %v#%d", f, i, u.Writer, u.Seq))
			case ws[i].seq != u.Seq:
				bad = append(bad, fmt.Sprintf("%v write %d was acknowledged as seq %d, replica has %d", f, i, ws[i].seq, u.Seq))
			case !bytes.Equal(u.Data, ws[i].payload):
				bad = append(bad, fmt.Sprintf("%v#%d has a wrong payload", f, u.Seq))
			}
		}
	}
	return bad
}

// layerRound reads the per-layer figures of a traced round: registry
// histograms and counters of both nodes, and the journal side
// measurement.
func (w *liveWrite) layerRound(nodes []*liveNode, issuers []*lwIssuer, dir string) {
	for _, ln := range nodes {
		reg := ln.n.Metrics()
		w.frames += reg.Counter("transport.frames_sent_total").Value()
		w.bytes += reg.Counter("transport.bytes_sent_total").Value()
		w.dropped += reg.Counter("transport.dropped_frames_total").Value()
		w.encUS = append(w.encUS, histMeanUS(reg, "transport.encode_seconds"))
		w.decUS = append(w.decUS, histMeanUS(reg, "transport.decode_seconds"))
	}
	reg := nodes[0].n.Metrics()
	w.queueUS = append(w.queueUS, reg.Histogram("core.queue_wait").Quantile(0.5)*1e6)
	w.fsyncMS = append(w.fsyncMS, reg.Histogram("store.wal_fsync_ms").Quantile(0.5))
	// Journal side measurement: the round's own updates appended again,
	// with the same group commit, to a scratch journal.
	var us []wire.Update
	for _, log := range replicaLogs(nodes[0], lwFiles) {
		us = append(us, log...)
	}
	ns, err := appendCost(filepath.Join(dir, "append"), us)
	if err == nil {
		w.appendNS += ns
		w.appended += int64(len(us))
	}
}

// appendCost appends us to a fresh journal in dir with the live group
// commit and returns the nanoseconds the appends took.
func appendCost(dir string, us []wire.Update) (int64, error) {
	wal, err := store.OpenWAL(dir)
	if err != nil {
		return 0, err
	}
	defer wal.Close()
	wal.SetGroupCommit(lwGroupCommit)
	t0 := time.Now()
	for _, u := range us {
		if err := wal.AppendUpdate(u); err != nil {
			return 0, err
		}
	}
	return time.Since(t0).Nanoseconds(), nil
}

func (w *liveWrite) report(t *tally, m metrics) {
	if !t.traced {
		m.set("write_p50_ms", median(w.p50))
		return
	}
	m.set("live.write_p99_ms", median(w.p99))
	l := w.l
	wr := l.sum(l.calls, "write")
	m.set("core.write_us", wr.usPer(wr.n))
	m.set("core.queue_wait_us", median(w.queueUS))
	det := l.sum(l.recv, "detect.")
	m.set("detect.handler_us_per_msg", det.usPer(det.n))
	detS := l.sum(l.send, "detect.")
	m.set("detect.msgs_per_write", perOp(float64(detS.n), w.writes))
	m.set("detect.bytes_per_write", perOp(float64(detS.bytes), w.writes))
	m.set("wal.append_us_per_record", perOp(float64(w.appendNS)/1e3, w.appended))
	m.set("wal.fsync_ms_p50", median(w.fsyncMS))
	send := l.sum(l.send, "")
	m.set("transport.send_us_per_msg", send.usPer(send.n))
	m.set("transport.encode_us", median(w.encUS))
	m.set("transport.decode_us", median(w.decUS))
	m.set("transport.frames_per_write", perOp(float64(w.frames), w.writes))
	m.set("transport.bytes_per_write", perOp(float64(w.bytes), w.writes))
	m.set("transport.dropped_frames", float64(w.dropped))
	tick := l.sum(l.timer, "core.health.tick")
	m.set("health.tick_us", tick.usPer(tick.n))
	l.codec(m)
}
