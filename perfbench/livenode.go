package main

import (
	"fmt"
	"sync"
	"time"

	"idea/internal/core"
	"idea/internal/detect"
	"idea/internal/env"
	"idea/internal/id"
	"idea/internal/membership"
	"idea/internal/store"
	"idea/internal/transport"
)

// liveNode is one core.Node behind a real TCP transport on loopback,
// built the way the idea.NewLiveNode facade builds it, except that the
// handler may run behind the layer wrapper. The benchmark's live nodes
// run one shard each.
type liveNode struct {
	n   *core.Node
	tn  *transport.Node
	h   *detachable
	wal *store.WAL // nil without a journal
}

// detachable forwards to a node's handler until detach. A closed
// transport keeps its pending timers, and through them its handler,
// reachable for up to a timer period; a process that starts and closes
// nodes round after round would otherwise carry every recent node's
// store on its heap. It hides env.Sharded, which is why the nodes run
// one shard: the runtime then never asks the handler for routing.
type detachable struct{ env.Handler }

// listen puts n on a loopback transport, behind the layer wrapper when
// l is set.
func listen(n *core.Node, l *layers) (*transport.Node, *detachable, error) {
	var h env.Handler = n
	if l != nil {
		h = wrapHandler(n, l)
	}
	d := &detachable{Handler: h}
	tn, err := transport.Listen(n.ID(), "127.0.0.1:0", d, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("listen: %w", err)
	}
	tn.AttachMetrics(n.Metrics())
	return tn, d, nil
}

// liveConfig is what differs between the benchmark's live nodes.
type liveConfig struct {
	opts core.Options
	// join is a seed's address: the node starts knowing nobody and
	// bootstraps its member list and store from the seed.
	join string
	// swim enables dynamic membership on a node that does not join.
	swim bool
}

// fastSwim are the failure-detector settings of the repository's join
// benchmarks: quick probes, so a join handshake is not paced by the
// default one-second cadence.
var fastSwim = membership.Config{
	ProbeInterval:  200 * time.Millisecond,
	ProbeTimeout:   100 * time.Millisecond,
	SuspectTimeout: 600 * time.Millisecond,
	JoinRetry:      250 * time.Millisecond,
}

// startLive builds and starts a live node. l, when set, wraps its
// handler.
func startLive(self id.NodeID, cfg liveConfig, l *layers) (*liveNode, error) {
	opts := cfg.opts
	if cfg.swim || cfg.join != "" {
		sc := fastSwim
		if cfg.join != "" {
			sc.Join = membership.SeedAlias
		}
		opts.Swim = &sc
	}
	n := core.NewNode(self, opts)
	tn, h, err := listen(n, l)
	if err != nil {
		return nil, err
	}
	if opts.Swim != nil {
		n.SetAdvertiseAddr(tn.Addr())
		if cfg.join != "" {
			tn.AddPeer(membership.SeedAlias, cfg.join)
			n.SetOnJoined(func(env.Env, id.NodeID) { tn.RemovePeer(membership.SeedAlias) })
		}
		n.SetOnMember(func(_ env.Env, ev membership.Event) {
			switch {
			case ev.Status == membership.Dead:
				tn.RemovePeer(ev.Node)
			case ev.Addr != "" && ev.Node != self:
				tn.AddPeer(ev.Node, ev.Addr)
			}
		})
		n.SwimAgent().OnContact(func(_ env.Env, nid id.NodeID, addr string) { tn.AddPeer(nid, addr) })
	}
	tn.Start()
	return &liveNode{n: n, tn: tn, h: h, wal: opts.Journal}, nil
}

// call runs fn in file's serialization domain and waits for it.
func (ln *liveNode) call(file id.FileID, fn func(env.Env)) {
	done := make(chan struct{})
	ln.tn.InjectFile(file, func(e env.Env) {
		fn(e)
		close(done)
	})
	<-done
}

// close stops the node (announcing departure first under dynamic
// membership), detaches it from the transport and closes its journal.
func (ln *liveNode) close() error {
	if ln.n.SwimAgent() != nil {
		left := make(chan struct{})
		ln.tn.Inject(func(e env.Env) {
			ln.n.Leave(e)
			close(left)
		})
		<-left
		time.Sleep(20 * time.Millisecond) // let the leave frames go out
	}
	ln.tn.Close()
	ln.h.Handler = nil
	if ln.wal != nil {
		return ln.wal.Close()
	}
	return nil
}

// verdicts pairs detection verdicts with the writes that asked for
// them, keyed by node and token. A verdict may be delivered before
// WriteTracked returns its token (a top layer of one finalizes at once),
// so a verdict nobody claims yet is parked until its write registers.
// The live workloads deliver and claim from several goroutines.
type verdicts struct {
	mu      sync.Mutex
	waiting map[nodeToken]func(at time.Duration)
	early   map[nodeToken]time.Duration
}

type nodeToken struct {
	node  id.NodeID
	token int64
}

func newVerdicts() *verdicts {
	return &verdicts{waiting: map[nodeToken]func(time.Duration){}, early: map[nodeToken]time.Duration{}}
}

// deliver records key's verdict, reached at at.
func (v *verdicts) deliver(key nodeToken, at time.Duration) {
	v.mu.Lock()
	f, ok := v.waiting[key]
	if ok {
		delete(v.waiting, key)
	} else {
		v.early[key] = at
	}
	v.mu.Unlock()
	if ok {
		f(at)
	}
}

// claim calls f with the time of key's verdict once it has arrived.
func (v *verdicts) claim(key nodeToken, f func(at time.Duration)) {
	v.mu.Lock()
	at, ok := v.early[key]
	if ok {
		delete(v.early, key)
	} else {
		v.waiting[key] = f
	}
	v.mu.Unlock()
	if ok {
		f(at)
	}
}

// watchVerdicts collects the verdicts of live node n.
func watchVerdicts(n *core.Node) *verdicts {
	v := newVerdicts()
	n.SetOnLevel(func(_ env.Env, _ id.FileID, res detect.Result) { v.deliver(nodeToken{n.ID(), res.Token}, 0) })
	return v
}

// await returns a channel closed when the verdict of n's write token
// has arrived.
func (v *verdicts) await(n *core.Node, token int64) <-chan struct{} {
	ch := make(chan struct{})
	v.claim(nodeToken{n.ID(), token}, func(time.Duration) { close(ch) })
	return ch
}
