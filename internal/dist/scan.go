package dist

import (
	"io"

	"busenc/internal/codec"
	"busenc/internal/obs"
	"busenc/internal/trace"
)

// The coordinator's scan: one forward pass over the mapped trace that
// is the planner, the seed sweep and the dispatch feed at once. Each
// chunk of the trace.CutReader is decoded once and packed into symbols
// once; every prefix-dependent codec's encoder steps over the symbols
// state-only (codec.StateSweep), snapshotting at each cut; and shard k
// goes on the work queue the moment the scan passes cut k — with its
// RangeCut and boundary states in place — so shard 0 dispatches
// before the scan has read past it, and the serial state sweep
// overlaps the pricing that depends on it instead of preceding it.

// seedSweep is one prefix-dependent codec's state-only sweep.
type seedSweep struct {
	name string
	sw   *codec.StateSweep
}

// prepareScan decides what the scan must step. Seeder codecs need no
// sweep (their boundary seeds from the cut's previous entries); when
// the journal already holds the states of every shard still to price,
// none is stepped either and the scan only finds cuts.
func (d *dispatcher) prepareScan() error {
	for _, cs := range d.opts.Codecs {
		c, err := cs.New()
		if err != nil {
			return err
		}
		sw, err := codec.NewStateSweep(c)
		if err != nil {
			return err
		}
		if sw != nil {
			d.sweeps = append(d.sweeps, seedSweep{name: cs.Name, sw: sw})
		}
	}
	if len(d.sweeps) == 0 {
		return nil
	}
	for k := 0; k < d.plan.shards; k++ {
		if _, done := d.prior.done[k]; done || d.plan.entry[k] == 0 {
			continue
		}
		for _, s := range d.sweeps {
			if _, ok := d.prior.boundary[k][s.name]; !ok {
				return nil // incomplete: sweep
			}
		}
	}
	d.closeSweeps()
	d.sweeps = nil
	d.fromJournal = true
	return nil
}

func (d *dispatcher) closeSweeps() {
	for _, s := range d.sweeps {
		s.sw.Close()
	}
}

// startScan runs the scan on its own goroutine. A scan error halts the
// sweep through the delivery channel; scanDone closes when the scan
// has stopped touching the mapped view, which Sweep's cleanup must
// wait for.
func (d *dispatcher) startScan() {
	go func() {
		defer close(d.scanDone)
		defer d.closeSweeps()
		sp := d.root.Child("dist.seed_sweep", obs.StageEncode)
		err := d.scan()
		sp.EndErr(err)
		if err != nil {
			d.deliver(delivery{kind: dScanErr, err: err})
		}
	}()
}

// scanning reports whether the scan may still publish shards.
func (d *dispatcher) scanning() bool {
	select {
	case <-d.scanDone:
		return false
	default:
		return true
	}
}

// scan is the forward pass. It returns early and silently when the
// sweep halts.
func (d *dispatcher) scan() error {
	plan := d.plan
	r := plan.scan
	// The last interior cut is the last one that needs state; past it
	// the scan only validates the bytes, which is what makes a
	// corrupted tail fail with the planner's positioned error.
	lastCut := plan.entry[plan.shards-1]
	var syms []codec.Symbol
	if len(d.sweeps) > 0 {
		syms = make([]codec.Symbol, trace.DefaultChunkLen)
	}
	var stepped int64
	next := 0 // next shard to publish
	var states map[string][]byte
	for {
		if n := len(r.Cuts()); next < plan.shards && n > next {
			if !d.publish(next, n, states) {
				return nil
			}
			next = n
		}
		select {
		case <-d.stop:
			return nil
		default:
		}
		ch, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		end := stepped + int64(ch.Len())
		if len(d.sweeps) > 0 && stepped < lastCut {
			n := ch.Len()
			syms = syms[:n]
			for i, a := range ch.Addrs {
				syms[i] = codec.Symbol{Addr: a, Sel: ch.Kinds[i] == trace.Instr}
			}
			// A chunk never straddles a cut, so a cut it reaches is at
			// its end: snapshot entering the boundary entry, its last.
			capture := next < plan.shards && end == plan.entry[next] && end > 0
			states = nil
			for _, s := range d.sweeps {
				if !capture {
					s.sw.Step(syms)
					continue
				}
				s.sw.Step(syms[:n-1])
				b, err := codec.MarshalState(s.sw.Snapshot())
				if err != nil {
					ch.Release()
					return err
				}
				if states == nil {
					states = make(map[string][]byte, len(d.sweeps))
				}
				states[s.name] = b
				s.sw.Step(syms[n-1:])
			}
		}
		stepped += int64(ch.Len())
		ch.Release()
	}
	RecordSeedSweep(lastCut * int64(len(d.sweeps)))
	return nil
}

// publish hands shards [from, to) — all starting at the cut the scan
// just passed — to the dispatcher, journaling fresh boundary states
// first. It returns false when the sweep has halted.
func (d *dispatcher) publish(from, to int, states map[string][]byte) bool {
	cuts := d.plan.scan.Cuts()
	for k := from; k < to && k < d.plan.shards; k++ {
		d.plan.cuts[k] = cuts[k]
		st := states
		if d.fromJournal {
			st = d.prior.boundary[k]
		} else if d.jr != nil && len(st) > 0 {
			if _, ok := d.prior.boundary[k]; !ok {
				if err := d.jr.append(journalRec{Type: recBoundary, Shard: k, States: st}); err != nil {
					d.deliver(delivery{kind: dScanErr, err: err})
					return false
				}
			}
		}
		d.states[k] = st
		if _, done := d.prior.done[k]; done {
			continue
		}
		select {
		case d.work <- k:
		case <-d.stop:
			return false
		}
		if d.opts.onPublish != nil {
			d.opts.onPublish(k)
		}
	}
	return true
}
