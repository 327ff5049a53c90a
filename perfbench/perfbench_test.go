package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"idea/internal/env"
	"idea/internal/id"
)

// wanRound runs one wan-hint round's schedule on a fresh cluster, with
// the layer wrappers when l is set, and returns the recorder and the
// simnet event trace.
func wanRound(seed int64, l *layers) (*wanRecorder, string) {
	var trace bytes.Buffer
	wc := buildWan(seed, l, &trace)
	rec := newWanRecorder(wc)
	rec.run(wanSchedule(rand.New(rand.NewSource(seed))), l)
	return rec, trace.String()
}

// The traced run must measure the same schedule as the untraced one:
// the wrappers may add time, never events.
func TestWrappersKeepSchedule(t *testing.T) {
	plain, plainTrace := wanRound(42, nil)
	l := newLayers()
	traced, tracedTrace := wanRound(42, l)
	if plainTrace != tracedTrace {
		t.Fatalf("event traces differ with the wrappers on (%d vs %d bytes)", len(plainTrace), len(tracedTrace))
	}
	if len(plainTrace) == 0 || l.sum(l.recv, "").n == 0 || l.sum(l.send, "").n == 0 {
		t.Fatal("nothing was traced")
	}
	if len(plain.writes) != len(traced.writes) || len(plain.vis) != len(traced.vis) {
		t.Fatalf("recorded %d/%d writes and %d/%d visibilities", len(plain.writes), len(traced.writes), len(plain.vis), len(traced.vis))
	}
	for i := range plain.writes {
		if plain.writes[i].verdict != traced.writes[i].verdict {
			t.Fatalf("write %d: verdict at %v untraced, %v traced", i, plain.writes[i].verdict, traced.writes[i].verdict)
		}
	}
}

func TestWanCheckCatchesPlantedViolations(t *testing.T) {
	rec, _ := wanRound(7, nil)
	final := wanFinal(rec.wc)
	if bad := checkWan(rec.writes, rec.belowHint, rec.followUps, final); len(bad) > 0 {
		t.Fatalf("clean round fails its check: %v", bad)
	}
	if len(rec.belowHint) == 0 || len(rec.vis) == 0 {
		t.Fatal("the round exercised no resolution")
	}
	kept := rec.writes[0]
	key := [2]int{int(kept.node), kept.seq}

	// A dropped update: one replica lost a write.
	victim := rec.wc.writers[len(rec.wc.writers)-1]
	saved := final[kept.file][victim].data[key]
	delete(final[kept.file][victim].data, key)
	expectViolation(t, "dropped update", checkWan(rec.writes, rec.belowHint, rec.followUps, final), "missing")
	final[kept.file][victim].data[key] = saved

	// A wrong payload.
	payload := kept.payload
	kept.payload = append([]byte{^payload[0]}, payload[1:]...)
	expectViolation(t, "wrong payload", checkWan(rec.writes, rec.belowHint, rec.followUps, final), "wrong payload")
	kept.payload = payload

	// A verdict below the hint that nothing followed up.
	late := append(append([]nodeEvent(nil), rec.belowHint...), nodeEvent{node: 1, file: wanFile(0), at: 24 * time.Hour})
	expectViolation(t, "unanswered verdict", checkWan(rec.writes, late, rec.followUps, final), "below the hint")

	// Replicas that end apart.
	rep := final[kept.file][victim]
	vec := rep.vec.Clone()
	vec.Tick(id.NodeID(99), 1, 0)
	final[kept.file][victim] = wanReplica{vec: vec, data: rep.data}
	expectViolation(t, "diverged replicas", checkWan(rec.writes, rec.belowHint, rec.followUps, final), "different vectors")
}

func expectViolation(t *testing.T, what string, bad []string, want string) {
	t.Helper()
	for _, b := range bad {
		if strings.Contains(b, want) {
			return
		}
	}
	t.Errorf("%s: check reported %v, want a violation mentioning %q", what, bad, want)
}

func TestLiveWriteCheckCatchesPlantedViolations(t *testing.T) {
	w := &liveWrite{}
	nodes, err := w.cluster(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, ln := range nodes {
			ln.close()
		}
	}()
	v := watchVerdicts(nodes[0].n)
	is := &lwIssuer{rng: rand.New(rand.NewSource(3)), files: []id.FileID{lwFile(0), lwFile(1)}}
	w.drive(nodes[0], v, []*lwIssuer{is}, 200, true)
	logs := replicaLogs(nodes[0], lwFiles)
	if bad := checkLiveWrite([]*lwIssuer{is}, logs); len(bad) > 0 {
		t.Fatalf("clean round fails its check: %v", bad)
	}
	f := is.writes[0].file
	orig := logs[f]
	logs[f] = orig[1:]
	expectViolation(t, "dropped update", checkLiveWrite([]*lwIssuer{is}, logs), "were written")
	logs[f] = orig
	is.writes[0].payload = []byte("not what was written")
	expectViolation(t, "wrong payload", checkLiveWrite([]*lwIssuer{is}, logs), "wrong payload")
}

// The restart phase acknowledges every write, and whatever the journal
// loses on reopen, the writes of the first life survive the final
// replay. Its check counts a planted wrong payload as lost.
func TestRestartCountsLostWrites(t *testing.T) {
	w := &restartJoin{}
	acked, lost, _, _, err := w.restarts(t.TempDir(), beginWindow())
	if err != nil {
		t.Fatal(err)
	}
	if len(acked) != rjLives*rjBatch || len(lost) > len(acked) {
		t.Fatalf("acked %d, lost %d", len(acked), len(lost))
	}
	for _, i := range lost {
		if i < rjBatch {
			t.Fatalf("write %d of the first life is lost", i)
		}
	}

	ln, _, err := w.restartNode(t.TempDir(), 0, beginWindow())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.serve(ln); err != nil {
		t.Fatal(err)
	}
	v := watchVerdicts(ln.n)
	acked = nil
	for i := 0; i < 10; i++ {
		f := rjFile(i % rjFiles)
		payload := []byte{byte(i)}
		var seq int
		var token int64
		ln.call(f, func(e env.Env) {
			u, tok := ln.n.WriteTracked(e, f, "put", payload, 0)
			seq, token = u.Seq, tok
		})
		<-v.await(ln.n, token)
		acked = append(acked, rjAck{file: f, seq: seq, payload: payload})
	}
	if got := checkRestart(acked, ln.n.Store()); len(got) != 0 {
		t.Fatalf("check lost writes %v of those just made", got)
	}
	acked[3].payload = []byte("planted")
	if got := checkRestart(acked, ln.n.Store()); len(got) != 1 || got[0] != 3 {
		t.Fatalf("check counts writes %v lost after planting one wrong payload", got)
	}
	ln.close()
}

// A joiner whose image differs from the seed's fails the check.
func TestJoinCheckCatchesPlantedViolation(t *testing.T) {
	w := &restartJoin{}
	seedNode, want, err := w.buildSeed(5)
	if err != nil {
		t.Fatal(err)
	}
	defer seedNode.close()
	tl := &tally{}
	if joined, _, err := w.joins(0, seedNode, want, tl, beginWindow()); err != nil || joined != rjJoins || len(tl.problems) > 0 {
		t.Fatalf("clean joins: joined %d, err %v, problems %v", joined, err, tl.problems)
	}
	img := want[rjPayFile]
	img.sum[0] ^= 1
	want[rjPayFile] = img
	joined, _, err := w.joins(1, seedNode, want, tl, beginWindow())
	if err != nil {
		t.Fatal(err)
	}
	if joined != 0 {
		t.Fatalf("%d joiners passed against a planted payload checksum", joined)
	}
	expectViolation(t, "planted checksum", tl.problems, "different image")
}

// Every untraced run prints every end-to-end metric, none of them zero;
// every traced run prints every per-layer metric.
func TestResultCarriesDeclaredMetrics(t *testing.T) {
	for _, traced := range []bool{false, true} {
		res, err := run(&wanHint{}, 1, time.Millisecond, traced, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
			t.Fatalf("traced=%v: correct %v, attempted %d, failed %d", traced, res.Correct, res.Attempted, res.Failed)
		}
		want := len(endToEnd)
		if traced {
			want = len(layerMetrics)
		}
		if len(res.Metrics) != want {
			t.Fatalf("traced=%v: %d metrics, want %d", traced, len(res.Metrics), want)
		}
		if !traced {
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v", name, m.Value)
				}
			}
		}
	}
}

// BENCHMARK.json declares exactly the metrics the program prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, the program %d+%d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(layerMetrics))
	}
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s %s, program has %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	for i, m := range b.PerLayer {
		if m.Name != layerMetrics[i].name || m.Unit != layerMetrics[i].unit {
			t.Errorf("per_layer[%d] = %s %s, program has %s %s", i, m.Name, m.Unit, layerMetrics[i].name, layerMetrics[i].unit)
		}
	}
}
