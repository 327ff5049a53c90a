package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"idea/internal/core"
	"idea/internal/env"
	"idea/internal/id"
	"idea/internal/overlay"
	"idea/internal/store"
	"idea/internal/vv"
	"idea/internal/wire"
)

// restart-join: the journal replay and the join path. A round has two
// phases.
//
// Restart: a live node journals into a persistent directory, writes a
// batch, syncs, closes and starts again on the same directory, rjLives
// times; a last start replays the journal once more and the replica is
// checked against every acknowledged write. These inputs do not depend
// on the seed: the known journal fault (a reopened journal starts a new
// gob stream that recovery never reads past) loses the same writes in
// every round, and they are counted as failed operations.
//
// Join: rjJoins joiners, one after another, bootstrap by snapshot from a
// seed whose two files were built in set-up: one metadata-heavy (many
// small updates) and one payload-heavy.
const (
	rjLives          = 4
	rjBatch          = 500 // acknowledged writes per life
	rjFiles          = 2   // files the restarting node writes
	rjPayload        = 64
	rjJoins          = 2
	rjMetaUpdates    = 60000
	rjMetaPayload    = 16
	rjPayloadUpdates = 512
	rjPayloadBytes   = 32 << 10
	rjWriters        = 4 // writers the seed's history claims
	rjGroupCommit    = 8
	rjSeedID         = id.NodeID(1)
	rjRestartID      = id.NodeID(50)
	rjPoll           = 2 * time.Millisecond // joiner progress polling
	rjJoinTimeout    = 30 * time.Second
)

const (
	rjMeta    = id.FileID("meta-heavy")
	rjPayFile = id.FileID("payload-heavy")
)

func rjFile(i int) id.FileID { return id.FileID(fmt.Sprintf("journal-%d", i)) }

// rjAck is one acknowledged write of the restart phase.
type rjAck struct {
	file    id.FileID
	seq     int
	payload []byte
}

// joinOptions configures the seed and the joiners: one shard, no
// gossip and no RanSub, so the join path is all that runs.
func joinOptions(self id.NodeID) core.Options {
	return core.Options{Membership: overlay.NewStatic([]id.NodeID{self}, nil), All: []id.NodeID{self},
		Shards: 1, DisableGossip: true, DisableRansub: true}
}

// fileImage is a replica's vector and a checksum over its log.
type fileImage struct {
	vec *vv.Vector
	sum [32]byte
}

func imageOf(rep *store.Replica) fileImage {
	h := sha256.New()
	for _, u := range rep.Log() {
		fmt.Fprintf(h, "%d/%d/%d/", u.Writer, u.Seq, len(u.Data))
		h.Write(u.Data)
	}
	var img fileImage
	img.vec = rep.Vector()
	copy(img.sum[:], h.Sum(nil))
	return img
}

type restartJoin struct {
	l *layers

	p50                   []float64 // ms, per round
	replayNS, replayBytes float64
	replayed              int64
	catchup, snapRate     []float64
}

func (w *restartJoin) minRounds() int { return 1 }

func (w *restartJoin) round(r int, seed int64, t *tally) error {
	if t.traced && w.l == nil {
		w.l = newLayers()
	}
	t0 := time.Now()
	seedNode, want, err := w.buildSeed(seed)
	if err != nil {
		return err
	}
	defer seedNode.close()
	t.setups = append(t.setups, time.Since(t0).Seconds())

	dir, err := os.MkdirTemp(t.workdir, "restart-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// The window is paused while the benchmark sizes journals and checks
	// replicas, and while a joiner is checked and closed.
	win := beginWindow()
	acked, lost, records, lat, err := w.restarts(dir, win)
	if err != nil {
		return err
	}
	joined, installed, err := w.joins(r, seedNode, want, t, win)
	if err != nil {
		return err
	}
	win.end(t, records+installed)
	w.p50 = append(w.p50, quantile(lat, 0.5))
	t.attempted += int64(len(acked) + rjJoins)
	t.failed += int64(len(lost) + rjJoins - joined)
	return nil
}

// buildSeed starts the seed node and fills its two files from the round
// seed, returning the seed and the images a joiner must end up with.
func (w *restartJoin) buildSeed(seed int64) (*liveNode, map[id.FileID]fileImage, error) {
	ln, err := startLive(rjSeedID, liveConfig{opts: joinOptions(rjSeedID), swim: true}, w.l)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	fill := func(f id.FileID, n, size int) {
		us := make([]wire.Update, n)
		seqs := map[id.NodeID]int{}
		for i := range us {
			wr := id.NodeID(i%rjWriters + 2)
			seqs[wr]++
			data := make([]byte, size)
			rng.Read(data)
			us[i] = wire.Update{File: f, Writer: wr, Seq: seqs[wr], At: vv.Stamp(i+1) * 1e6, Op: "put", Data: data}
		}
		ln.call(f, func(env.Env) {
			rep := ln.n.Store().Open(f)
			for _, u := range us {
				rep.Apply(u)
			}
		})
	}
	fill(rjMeta, rjMetaUpdates, rjMetaPayload)
	fill(rjPayFile, rjPayloadUpdates, rjPayloadBytes)
	want := map[id.FileID]fileImage{}
	for _, f := range []id.FileID{rjMeta, rjPayFile} {
		ln.call(f, func(env.Env) { want[f] = imageOf(ln.n.Store().Open(f)) })
	}
	return ln, want, nil
}

// restartNode starts the restarting node on its journal directory.
// When the journal holds journaled records, the start is a restart: the
// journal open and the replay inside core.NewNode are timed, and the
// replay is charged at the journal's mean record size. It returns the
// node and how many records the replay restored.
func (w *restartJoin) restartNode(dir string, journaled int, win *window) (*liveNode, int, error) {
	win.pause()
	size, err := dirSize(dir)
	win.resume()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	wal, err := store.OpenWAL(dir)
	if err != nil {
		return nil, 0, err
	}
	wal.SetGroupCommit(rjGroupCommit)
	all := []id.NodeID{rjRestartID}
	top := map[id.FileID][]id.NodeID{}
	for i := 0; i < rjFiles; i++ {
		top[rjFile(i)] = all
	}
	opts := core.Options{Membership: overlay.NewStatic(all, top), All: all, Shards: 1,
		DisableGossip: true, DisableRansub: true, Journal: wal}
	n := core.NewNode(rjRestartID, opts)
	replay := time.Since(t0)
	restored := 0
	for i := 0; i < rjFiles; i++ {
		if rep := n.Store().Peek(rjFile(i)); rep != nil {
			restored += rep.Len()
		}
	}
	if journaled > 0 {
		w.replayNS += float64(replay.Nanoseconds())
		w.replayed += int64(restored)
		w.replayBytes += float64(size) * float64(restored) / float64(journaled)
	}
	// The node goes on the transport (serve) only when it is to take
	// writes; until then its replica is read with no callback running.
	return &liveNode{n: n, wal: wal}, restored, nil
}

// restarts runs the restart phase of a round in dir, measured by win.
// It returns the acknowledged writes, the indices of those the final
// replay lost, the records the phase processed (writes plus replayed
// records) and the write latencies. It returns with win paused.
func (w *restartJoin) restarts(dir string, win *window) (acked []rjAck, lost []int, records int64, lat []float64, err error) {
	// Seed-independent inputs: the same payloads in every round.
	rng := rand.New(rand.NewSource(1))
	for life := 0; ; life++ {
		ln, restored, err := w.restartNode(dir, len(acked), win)
		if err != nil {
			return nil, nil, 0, nil, err
		}
		records += int64(restored)
		if life == rjLives {
			win.pause()
			lost = checkRestart(acked, ln.n.Store())
			return acked, lost, records + int64(len(acked)), lat, ln.wal.Close()
		}
		if err := w.serve(ln); err != nil {
			ln.wal.Close()
			return nil, nil, 0, nil, err
		}
		v := watchVerdicts(ln.n)
		for i := 0; i < rjBatch; i++ {
			f := rjFile(i % rjFiles)
			payload := make([]byte, rjPayload)
			rng.Read(payload)
			t0 := time.Now()
			var u wire.Update
			var token int64
			ln.call(f, func(e env.Env) {
				e = w.l.wrapEnv(e)
				w.l.call("write", func() { u, token = ln.n.WriteTracked(e, f, "put", payload, 0) })
			})
			<-v.await(ln.n, token)
			lat = append(lat, ms(time.Since(t0)))
			acked = append(acked, rjAck{file: f, seq: u.Seq, payload: payload})
		}
		// Acknowledged once the journal is synced.
		if err := ln.wal.SyncAll(); err != nil {
			ln.close()
			return nil, nil, 0, nil, err
		}
		if err := ln.close(); err != nil {
			return nil, nil, 0, nil, err
		}
	}
}

// serve puts a replayed node on the transport.
func (w *restartJoin) serve(ln *liveNode) error {
	tn, h, err := listen(ln.n, w.l)
	if err != nil {
		return err
	}
	tn.Start()
	ln.tn, ln.h = tn, h
	return nil
}

// checkRestart returns the indices of the acknowledged writes the store
// does not hold with their payload.
func checkRestart(acked []rjAck, st *store.Store) []int {
	have := map[id.FileID]map[int][]byte{}
	for i := 0; i < rjFiles; i++ {
		f := rjFile(i)
		have[f] = map[int][]byte{}
		if rep := st.Peek(f); rep != nil {
			for _, u := range rep.Log() {
				have[f][u.Seq] = u.Data
			}
		}
	}
	var lost []int
	for i, a := range acked {
		if got, ok := have[a.file][a.seq]; !ok || !bytes.Equal(got, a.payload) {
			lost = append(lost, i)
		}
	}
	return lost
}

func dirSize(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !fi.IsDir() {
			total += fi.Size()
		}
		return nil
	})
	return total, err
}

// joins runs the join phase of a round: rjJoins joiners, one after
// another, bootstrap from the seed; each must end with the seed's images
// of both files. win measures each joiner from its start until it has
// caught up. It returns how many joined correctly and the updates they
// installed.
func (w *restartJoin) joins(r int, seedNode *liveNode, want map[id.FileID]fileImage, t *tally, win *window) (joined int, installed int64, err error) {
	files := []id.FileID{rjMeta, rjPayFile}
	for j := 0; j < rjJoins; j++ {
		win.resume()
		t0 := time.Now()
		ln, err := startLive(id.NodeID(100+j), liveConfig{opts: joinOptions(id.NodeID(100 + j)), join: seedNode.tn.Addr()}, w.l)
		if err != nil {
			return joined, installed, err
		}
		done := map[id.FileID]time.Duration{}
		for len(done) < len(files) && time.Since(t0) < rjJoinTimeout {
			time.Sleep(rjPoll)
			for _, f := range files {
				if _, ok := done[f]; ok {
					continue
				}
				var vec *vv.Vector
				ln.call(f, func(env.Env) {
					if rep := ln.n.Store().Peek(f); rep != nil {
						vec = rep.Vector()
					}
				})
				if vec != nil && vv.Compare(vec, want[f].vec) == vv.Equal {
					done[f] = time.Since(t0)
				}
			}
		}
		win.pause()
		ok := len(done) == len(files)
		if r == 0 && j == 0 {
			// One sample per run, while the seed and a joiner hold their
			// copies: later rounds also count the transports of earlier
			// ones, which their pending timers keep reachable.
			t.heapMB = append(t.heapMB, liveHeapMB())
		}
		for _, f := range files {
			var got fileImage
			ln.call(f, func(env.Env) { got = imageOf(ln.n.Store().Open(f)) })
			if vv.Compare(got.vec, want[f].vec) != vv.Equal || got.sum != want[f].sum {
				t.problem("round %d: joiner %d holds a different image of %v than the seed", r, j, f)
				ok = false
			}
		}
		if err := ln.close(); err != nil {
			return joined, installed, err
		}
		if !ok {
			continue
		}
		joined++
		installed += rjMetaUpdates + rjPayloadUpdates
		w.catchup = append(w.catchup, done[rjMeta].Seconds())
		w.snapRate = append(w.snapRate, float64(rjPayloadUpdates*rjPayloadBytes)/(1<<20)/done[rjPayFile].Seconds())
	}
	return joined, installed, nil
}

func (w *restartJoin) report(t *tally, m metrics) {
	if !t.traced {
		m.set("write_p50_ms", median(w.p50))
		return
	}
	l := w.l
	m.set("rj.recover_mb_per_s", w.replayBytes/(1<<20)/(w.replayNS/1e9))
	m.set("rj.join_catchup_s", median(w.catchup))
	m.set("rj.snapshot_mb_per_s", median(w.snapRate))
	wr := l.sum(l.calls, "write")
	m.set("core.write_us", wr.usPer(wr.n))
	chunk := l.sum(l.recv, "snap.file_chunk")
	m.set("snap.handler_us_per_chunk", chunk.usPer(chunk.n))
	serve := l.sum(l.recv, "snap.file_req")
	m.set("snap.serve_us_per_chunk", serve.usPer(serve.n))
	sent := l.sum(l.send, "snap.file_chunk")
	m.set("snap.chunks_per_mb", perOp(float64(sent.n)*(1<<20), sent.bytes))
	mem := l.sum(l.recv, "member.")
	m.set("member.handler_us_per_msg", mem.usPer(mem.n))
	m.set("wal.recover_us_per_record", perOp(w.replayNS/1e3, w.replayed))
	send := l.sum(l.send, "")
	m.set("transport.send_us_per_msg", send.usPer(send.n))
	tick := l.sum(l.timer, "core.health.tick")
	m.set("health.tick_us", tick.usPer(tick.n))
	l.codec(m)
}
