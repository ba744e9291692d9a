// Package dist prices huge traces across worker processes. The
// coordinator plans a BETR (or text, converted once) trace into
// contiguous byte-range shards over one shared mmap view — no shard
// files are written — and, in the same forward scan, runs the
// state-only boundary sweep that makes mid-stream shards exact (see
// codec.Boundary), handing each shard to a pool of workers over a
// stdin/stdout framed protocol as soon as the scan passes its cut. It
// merges the returned bus accumulators deterministically in ascending
// shard order, so the distributed result is bit-identical to
// codec.RunFast. A journal-based checkpoint makes a killed sweep
// resumable: per-shard boundary states and result digests are fsync'd
// as they are produced, and a restarted coordinator re-plans, verifies
// the plan digest, and prices only the shards the journal does not
// already hold.
package dist

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"busenc/internal/bus"
	"busenc/internal/codec"
	"busenc/internal/trace"
)

// Wire protocol: 4-byte big-endian length followed by one JSON message.
// The framing exists so a worker crash mid-write is a short read at the
// coordinator, never a half-parsed message. Both sides are built from
// the same binary (a worker is the coordinator re-executed with a
// -worker flag), so the message schema needs no versioning beyond the
// hello exchange.

// maxFrame bounds a single message. Jobs carry only descriptors and
// marshaled encoder states; results carry per-codec bus statistics
// (per-line slices at most), so frames are small — the cap catches a
// desynced stream, not a real payload.
const maxFrame = 64 << 20

// Message types.
const (
	msgHello    = "hello"
	msgPing     = "ping"
	msgPong     = "pong"
	msgJob      = "job"
	msgResult   = "result"
	msgShutdown = "shutdown"
	msgSpans    = "spans"
)

// ProtoVersion is bumped whenever the job or result schema — or the
// dispatch contract — changes incompatibly. The hello handshake (and
// the /healthz peer handshake in internal/serve) rejects mismatches
// loudly instead of mispricing quietly. Version 2 introduced pipelined
// dispatch: a worker must answer pings concurrently with pricing, and
// may hold several jobs in flight. Version 3 added distributed
// tracing: hellos carry the worker's hostname, pongs carry the
// worker's wall clock (the coordinator's clock-offset sample), jobs
// carry trace/parent-span context, and a spans request/reply pair
// harvests the worker's tagged spans before shutdown.
const ProtoVersion = 3

// msg is the single envelope every frame carries.
type msg struct {
	Type    string       `json:"type"`
	Version int          `json:"version,omitempty"` // hello
	PID     int          `json:"pid,omitempty"`     // hello
	Host    string       `json:"host,omitempty"`    // hello
	Now     int64        `json:"now,omitempty"`     // pong: worker wall clock, unix ns
	Trace   string       `json:"trace,omitempty"`   // spans request: trace ID to dump
	Job     *Job         `json:"job,omitempty"`
	Result  *ShardResult `json:"result,omitempty"`
	Spans   *SpanDump    `json:"spans,omitempty"` // spans reply
}

// CodecSpec names a codec and the knobs needed to reconstruct it in
// another process. It is codec.Options minus Train: the Beach training
// stream is not serializable, so distributed sweeps reject trained
// Beach codecs at plan time.
type CodecSpec struct {
	Name       string `json:"name"`
	Width      int    `json:"width"`
	Stride     uint64 `json:"stride,omitempty"`
	Partitions int    `json:"partitions,omitempty"`
	Zones      int    `json:"zones,omitempty"`
	ZoneBits   int    `json:"zone_bits,omitempty"`
	Entries    int    `json:"entries,omitempty"`
}

// New constructs the codec the spec describes.
func (cs CodecSpec) New() (codec.Codec, error) {
	return codec.New(cs.Name, cs.Width, codec.Options{
		Stride:     cs.Stride,
		Partitions: cs.Partitions,
		Zones:      cs.Zones,
		ZoneBits:   cs.ZoneBits,
		Entries:    cs.Entries,
	})
}

// SpecFor derives the wire spec for a codec constructed with opts.
// Train must be nil: a profiling stream cannot cross the process
// boundary.
func SpecFor(name string, width int, opts codec.Options) (CodecSpec, error) {
	if opts.Train != nil {
		return CodecSpec{}, fmt.Errorf("dist: codec %s: training streams are not distributable", name)
	}
	return CodecSpec{
		Name:       name,
		Width:      width,
		Stride:     opts.Stride,
		Partitions: opts.Partitions,
		Zones:      opts.Zones,
		ZoneBits:   opts.ZoneBits,
		Entries:    opts.Entries,
	}, nil
}

// CodecJob pairs a codec spec with the shard's marshaled boundary
// state for it (nil for Seeder codecs and for shard 0).
type CodecJob struct {
	Spec  CodecSpec `json:"spec"`
	State []byte    `json:"state,omitempty"`
}

// Job prices one shard of the trace for every requested codec. The
// shard is a byte range of the (shared, mmap'd) trace file — the worker
// re-opens the same file and decodes only its range, so nothing is
// copied through the pipe.
type Job struct {
	TracePath string         `json:"trace_path"`
	Stream    string         `json:"stream"`
	Width     int            `json:"width"`
	Shard     int            `json:"shard"`
	Cut       trace.RangeCut `json:"cut"`
	N         int64          `json:"n"` // entries in the shard
	Codecs    []CodecJob     `json:"codecs"`
	Verify    int            `json:"verify"`
	PerLine   bool           `json:"per_line"`
	Kernel    int            `json:"kernel"`
	// Trace and Span carry the coordinator's distributed-trace context:
	// the sweep-wide trace ID and the coordinator-side dist.shard span
	// the worker's spans should parent to. Empty/zero when the sweep is
	// not harvesting spans.
	Trace string `json:"trace,omitempty"`
	Span  uint64 `json:"span,omitempty"`
}

// ShardResult carries one shard's accumulators back: a bus.Stats
// snapshot per codec (keyed by codec name), or the first error the
// shard hit. Err positions are global entry indices, identical to a
// sequential run's.
type ShardResult struct {
	Shard int                  `json:"shard"`
	Stats map[string]bus.Stats `json:"stats,omitempty"`
	Err   string               `json:"err,omitempty"`
}

// conn frames messages over a byte stream. stats is non-nil only on
// network transports: the framing layer is where every frame and byte
// crossing the wire is visible, so the dist.net.* counters hook here.
type conn struct {
	r     *bufio.Reader
	w     io.Writer
	buf   []byte
	stats *NetStats
}

func newConn(r io.Reader, w io.Writer) *conn {
	return &conn{r: bufio.NewReaderSize(r, 1<<16), w: w}
}

// send writes one framed message. Errors mean the peer is gone.
func (c *conn) send(m msg) error {
	body, err := json.Marshal(m)
	if err != nil {
		return err
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := c.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := c.w.Write(body); err != nil {
		return err
	}
	if c.stats != nil {
		c.stats.FramesSent.Add(1)
		c.stats.BytesSent.Add(int64(4 + len(body)))
		recordNetSend(4 + len(body))
	}
	return nil
}

// recv reads one framed message. io.EOF (possibly wrapped as
// io.ErrUnexpectedEOF mid-frame) means the peer exited.
func (c *conn) recv() (msg, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(c.r, hdr[:]); err != nil {
		return msg{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return msg{}, fmt.Errorf("dist: %d-byte frame exceeds limit", n)
	}
	if cap(c.buf) < int(n) {
		c.buf = make([]byte, n)
	}
	body := c.buf[:n]
	if _, err := io.ReadFull(c.r, body); err != nil {
		return msg{}, err
	}
	var m msg
	if err := json.Unmarshal(body, &m); err != nil {
		return msg{}, fmt.Errorf("dist: bad frame: %w", err)
	}
	if c.stats != nil {
		c.stats.FramesRecv.Add(1)
		c.stats.BytesRecv.Add(int64(4 + n))
		recordNetRecv(4 + int(n))
	}
	return m, nil
}
