package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// endToEnd lists the metrics an untraced run prints, with their units.
// Every workload prints every one of them; README.md says what each
// means on each workload.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"write_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"cpu_us_per_op", "us"},
	{"heap_live_mb", "MB"},
}

// layerMetrics lists the metrics a traced run prints, with their units.
// A workload that does not exercise a layer prints its metrics as 0.
var layerMetrics = []struct{ name, unit string }{
	{"traced.cpu_us_per_op", "us"},
	// end-to-end figures specific to one workload
	{"wan.visibility_p50_ms", "ms"},
	{"wan.visibility_p99_ms", "ms"},
	{"wan.resolve_p50_ms", "ms"},
	{"wan.msgs_per_write", "msg"},
	{"wan.bytes_per_write", "B"},
	{"wan.virtual_write_p50_ms", "ms"},
	{"wan.write_p99_ms", "ms"},
	{"live.write_p99_ms", "ms"},
	{"rj.recover_mb_per_s", "MB/s"},
	{"rj.join_catchup_s", "s"},
	{"rj.snapshot_mb_per_s", "MB/s"},
	// core
	{"core.write_us", "us"},
	{"core.read_us", "us"},
	{"core.queue_wait_us", "us"},
	// detect
	{"detect.handler_us_per_msg", "us"},
	{"detect.msgs_per_write", "msg"},
	{"detect.bytes_per_write", "B"},
	{"detect.timeouts_per_kwrite", "count"},
	// resolve
	{"resolve.handler_us_per_session", "us"},
	{"resolve.msgs_per_session", "msg"},
	{"resolve.bytes_per_session", "B"},
	{"resolve.sessions_per_kwrite", "count"},
	{"resolve.aborted_per_session", "ratio"},
	{"store.log_entries", "count"},
	// gossip
	{"gossip.handler_us_per_msg", "us"},
	{"gossip.timer_us_per_round", "us"},
	{"gossip.msgs_per_write", "msg"},
	{"gossip.bytes_per_write", "B"},
	// membership and snapshot transfer
	{"snap.handler_us_per_chunk", "us"},
	{"snap.serve_us_per_chunk", "us"},
	{"snap.chunks_per_mb", "count"},
	{"member.handler_us_per_msg", "us"},
	// store and journal
	{"store.preload_us_per_update", "us"},
	{"wal.recover_us_per_record", "us"},
	{"wal.append_us_per_record", "us"},
	{"wal.fsync_ms_p50", "ms"},
	// wire codec
	{"wire.encode_ns_per_msg", "ns"},
	{"wire.decode_ns_per_msg", "ns"},
	{"wire.bytes_per_msg", "B"},
	// emulator
	{"simnet.send_us_per_msg", "us"},
	{"simnet.events_per_op", "count"},
	// live transport
	{"transport.send_us_per_msg", "us"},
	{"transport.encode_us", "us"},
	{"transport.decode_us", "us"},
	{"transport.frames_per_write", "count"},
	{"transport.bytes_per_write", "B"},
	{"transport.dropped_frames", "count"},
	// health engine
	{"health.tick_us", "us"},
	// Go runtime
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_kb_per_op", "KB"},
	{"runtime.gc_per_kop", "count"},
}

var (
	units    = map[string]string{}
	perLayer []string
)

func init() {
	for _, m := range endToEnd {
		units[m.name] = m.unit
	}
	for _, m := range layerMetrics {
		units[m.name] = m.unit
		perLayer = append(perLayer, m.name)
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty sample). It sorts xs in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// perOp divides total by n, returning 0 when nothing was counted.
func perOp(total float64, n int64) float64 {
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// processCPU returns the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
