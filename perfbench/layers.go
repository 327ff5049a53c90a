package main

import (
	"math/rand"
	"strings"
	"sync"
	"time"

	"idea/internal/env"
	"idea/internal/id"
	"idea/internal/telemetry"
	"idea/internal/vv"
	"idea/internal/wire"
)

// opStat counts calls into one layer entry point and the time spent in
// them (inclusive of nested calls, e.g. the sends a handler makes).
type opStat struct {
	n, ns, bytes int64
}

// layers collects per-layer counts and times from the wrappers of one
// run. Live runtimes call in from several goroutines, hence the lock.
type layers struct {
	mu     sync.Mutex
	recv   map[string]*opStat // by message kind
	timer  map[string]*opStat // by timer key
	send   map[string]*opStat // by message kind; bytes = encoded size
	calls  map[string]*opStat // benchmark calls into core.Node, by name
	sample map[string][]wire.Envelope
	seen   map[string]int
	sizer  *wire.Sizer
}

func newLayers() *layers {
	return &layers{
		recv:   map[string]*opStat{},
		timer:  map[string]*opStat{},
		send:   map[string]*opStat{},
		calls:  map[string]*opStat{},
		sample: map[string][]wire.Envelope{},
		seen:   map[string]int{},
		sizer:  wire.NewSizer(),
	}
}

// Wire-codec sample: every sampleStride-th received message of a kind,
// at most sampleCap per kind, so large snapshot chunks cannot pile up.
const (
	sampleStride = 4
	sampleCap    = 128
)

func addStat(m map[string]*opStat, key string, d time.Duration, bytes int) {
	s := m[key]
	if s == nil {
		s = &opStat{}
		m[key] = s
	}
	s.n++
	s.ns += int64(d)
	s.bytes += int64(bytes)
}

func (l *layers) noteRecv(kind string, d time.Duration, from, to id.NodeID, msg env.Message) {
	l.mu.Lock()
	defer l.mu.Unlock()
	addStat(l.recv, kind, d, 0)
	wm, ok := msg.(wire.Message)
	if !ok {
		return
	}
	l.seen[kind]++
	if l.seen[kind]%sampleStride == 1 && len(l.sample[kind]) < sampleCap {
		l.sample[kind] = append(l.sample[kind], wire.Envelope{From: from, To: to, Msg: wm})
	}
}

// call times fn as a benchmark call into the program named name.
func (l *layers) call(name string, fn func()) {
	if l == nil {
		fn()
		return
	}
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	l.mu.Lock()
	addStat(l.calls, name, d, 0)
	l.mu.Unlock()
}

// sum adds up the stats of m whose key starts with prefix.
func (l *layers) sum(m map[string]*opStat, prefix string) opStat {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out opStat
	for k, s := range m {
		if strings.HasPrefix(k, prefix) {
			out.n += s.n
			out.ns += s.ns
			out.bytes += s.bytes
		}
	}
	return out
}

// usPer returns the stat's time in microseconds divided by n.
func (s opStat) usPer(n int64) float64 { return perOp(float64(s.ns)/1e3, n) }

// handler wraps a node's env.Handler: it times every Recv and Timer by
// message kind and timer key, and hands the node a wrapped Env so its
// sends are timed too. It forwards env.Sharded so the runtime routes
// every callback exactly as it would for the bare node.
type handler struct {
	inner env.Handler
	sh    env.Sharded
	l     *layers
}

func wrapHandler(h env.Handler, l *layers) *handler {
	sh, _ := h.(env.Sharded)
	return &handler{inner: h, sh: sh, l: l}
}

func (h *handler) Start(e env.Env) { h.inner.Start(h.env(e)) }

func (h *handler) Recv(e env.Env, from id.NodeID, msg env.Message) {
	t0 := time.Now()
	h.inner.Recv(h.env(e), from, msg)
	h.l.noteRecv(msg.Kind(), time.Since(t0), from, e.ID(), msg)
}

func (h *handler) Timer(e env.Env, key string, data any) {
	t0 := time.Now()
	h.inner.Timer(h.env(e), key, data)
	d := time.Since(t0)
	h.l.mu.Lock()
	addStat(h.l.timer, key, d, 0)
	h.l.mu.Unlock()
}

func (h *handler) env(e env.Env) env.Env { return &timedEnv{inner: e, l: h.l} }

func (h *handler) Shards() int {
	if h.sh == nil {
		return 1
	}
	return h.sh.Shards()
}

func (h *handler) ShardOfFile(f id.FileID) int {
	if h.sh == nil {
		return 0
	}
	return h.sh.ShardOfFile(f)
}

func (h *handler) ShardOfMessage(msg env.Message) int {
	if h.sh == nil {
		return 0
	}
	return h.sh.ShardOfMessage(msg)
}

func (h *handler) ShardOfTimer(key string, data any) int {
	if h.sh == nil {
		return 0
	}
	return h.sh.ShardOfTimer(key, data)
}

// timedEnv wraps an env.Env and times Send; everything else passes
// through.
type timedEnv struct {
	inner env.Env
	l     *layers
}

func (e *timedEnv) ID() id.NodeID    { return e.inner.ID() }
func (e *timedEnv) Now() time.Time   { return e.inner.Now() }
func (e *timedEnv) Stamp() vv.Stamp  { return e.inner.Stamp() }
func (e *timedEnv) Rand() *rand.Rand { return e.inner.Rand() }
func (e *timedEnv) After(d time.Duration, key string, data any) {
	e.inner.After(d, key, data)
}
func (e *timedEnv) Logf(format string, args ...any) { e.inner.Logf(format, args...) }

func (e *timedEnv) Send(to id.NodeID, msg env.Message) {
	t0 := time.Now()
	e.inner.Send(to, msg)
	d := time.Since(t0)
	size := 0
	if wm, ok := msg.(wire.Message); ok {
		size = e.l.sizer.Size(wire.Envelope{From: e.inner.ID(), To: to, Msg: wm})
	}
	e.l.mu.Lock()
	addStat(e.l.send, msg.Kind(), d, size)
	e.l.mu.Unlock()
}

// wrapEnv returns e wrapped for timing when tracing, else e itself.
func (l *layers) wrapEnv(e env.Env) env.Env {
	if l == nil {
		return e
	}
	return &timedEnv{inner: e, l: l}
}

// codec measures the wire codec on the sampled messages: mean encode
// and decode time and encoded size, each kind weighted by how often it
// was received.
func (l *layers) codec(m metrics) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var encNS, decNS, size, weight float64
	for kind, envs := range l.sample {
		if len(envs) == 0 {
			continue
		}
		var kEnc, kDec, kSize float64
		for _, e := range envs {
			enc, dec, n := codecCost(e)
			kEnc += enc
			kDec += dec
			kSize += float64(n)
		}
		k := float64(len(envs))
		w := float64(l.seen[kind])
		encNS += w * kEnc / k
		decNS += w * kDec / k
		size += w * kSize / k
		weight += w
	}
	if weight == 0 {
		return
	}
	m.set("wire.encode_ns_per_msg", encNS/weight)
	m.set("wire.decode_ns_per_msg", decNS/weight)
	m.set("wire.bytes_per_msg", size/weight)
}

// codecCost encodes and decodes one envelope repeatedly and returns the
// mean nanoseconds of each and the encoded size.
func codecCost(e wire.Envelope) (encNS, decNS float64, size int) {
	const reps = 16
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		f, err := wire.EncodeFrame(e, 4)
		if err != nil {
			return 0, 0, 0
		}
		size = len(f.Payload(4))
		f.Release()
	}
	encNS = float64(time.Since(t0).Nanoseconds()) / reps
	b, err := wire.Encode(e)
	if err != nil {
		return 0, 0, 0
	}
	t0 = time.Now()
	for i := 0; i < reps; i++ {
		if _, err := wire.Decode(b); err != nil {
			return 0, 0, 0
		}
	}
	decNS = float64(time.Since(t0).Nanoseconds()) / reps
	return encNS, decNS, size
}

// histMeanUS returns a registry histogram's mean in microseconds
// (histograms record seconds).
func histMeanUS(reg *telemetry.Registry, name string) float64 {
	return reg.Histogram(name).Mean() * 1e6
}
