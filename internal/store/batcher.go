package store

import (
	"sync"
	"sync/atomic"
	"time"
)

// op is one unit of deferred write work: an artifact body or a ledger line.
// Exactly one of the two shapes is set.
type op struct {
	line           []byte // ledger record line, when non-nil
	index          int64  // the line's record index
	artifactDigest string // artifact digest, when artifactData is non-nil
	artifactData   []byte
	// flushDone, when non-nil, marks a synthetic flush barrier: the writer
	// flushes everything before it and closes the channel.
	flushDone chan error
}

// batcher drains a bounded op channel on one writer goroutine, flushing to
// the backend when FlushEvery ops are pending, when FlushInterval elapses
// with work pending, or when a flush barrier (Flush/Close) arrives. Batches
// are written in FIFO order, each one's artifacts before its lines, so an
// artifact enqueued before the record referencing it is never durable later
// than that record.
type batcher struct {
	b    Backend
	opts Options
	ch   chan op

	flushes int64 // atomic
	pending int64 // atomic: accepted ops not yet flushed
	// durable is the index of the newest record whose flush succeeded
	// (Store.Durable); it stops advancing once err is set.
	durable atomic.Int64

	stop chan struct{}
	done chan struct{}
	once sync.Once
	err  atomic.Value // first flush error, sticky
}

// newBatcher starts the writer goroutine; durable is the index of the last
// record already on the backend (-1 for none).
func newBatcher(b Backend, opts Options, durable int64) *batcher {
	bat := &batcher{
		b:    b,
		opts: opts,
		ch:   make(chan op, opts.QueueDepth),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	bat.durable.Store(durable)
	go bat.run()
	return bat
}

// enqueue hands one op to the writer, blocking (backpressure, never loss)
// when the channel is full.
func (bat *batcher) enqueue(o op) {
	atomic.AddInt64(&bat.pending, 1)
	bat.ch <- o
}

// flush inserts a barrier and waits for everything before it to be durable.
func (bat *batcher) flush() error {
	select {
	case <-bat.done:
		// Writer already gone (Close raced); everything accepted was flushed.
		return bat.firstErr()
	default:
	}
	donec := make(chan error, 1)
	select {
	case bat.ch <- op{flushDone: donec}:
	case <-bat.done:
		return bat.firstErr()
	}
	select {
	case err := <-donec:
		return err
	case <-bat.done:
		// The writer exited (Close raced) before answering the barrier; all
		// data ops accepted before the close were flushed by its drain.
		return bat.firstErr()
	}
}

// close flushes the queue and stops the writer.
func (bat *batcher) close() error {
	bat.once.Do(func() { close(bat.stop) })
	<-bat.done
	return bat.firstErr()
}

// stats reports flush count and pending ops.
func (bat *batcher) stats() (flushes, pending int64) {
	return atomic.LoadInt64(&bat.flushes), atomic.LoadInt64(&bat.pending)
}

// firstErr returns the sticky first flush error.
func (bat *batcher) firstErr() error {
	if e, ok := bat.err.Load().(error); ok {
		return e
	}
	return nil
}

// run is the writer goroutine: accumulate, flush, repeat until stopped and
// drained.
func (bat *batcher) run() {
	defer close(bat.done)
	var batch []op
	timer := time.NewTimer(bat.opts.FlushInterval)
	defer timer.Stop()

	flush := func() {
		if len(batch) == 0 {
			return
		}
		if err := bat.writeBatch(batch); err != nil {
			bat.err.CompareAndSwap(nil, err)
		} else if bat.firstErr() == nil {
			bat.advance(batch)
		}
		atomic.AddInt64(&bat.pending, -int64(len(batch)))
		atomic.AddInt64(&bat.flushes, 1)
		batch = batch[:0]
	}

	for {
		select {
		case o := <-bat.ch:
			if o.flushDone != nil {
				flush()
				o.flushDone <- bat.firstErr()
				continue
			}
			batch = append(batch, o)
			if len(batch) >= bat.opts.FlushEvery {
				flush()
			}
		case <-timer.C:
			flush()
			timer.Reset(bat.opts.FlushInterval)
		case <-bat.stop:
			// Drain whatever is already queued, then flush and exit. Nothing
			// accepted before close() is lost.
			for {
				select {
				case o := <-bat.ch:
					if o.flushDone != nil {
						flush()
						o.flushDone <- bat.firstErr()
						continue
					}
					batch = append(batch, o)
				default:
					flush()
					return
				}
			}
		}
	}
}

// advance moves the durable watermark to the newest record line of a batch
// that was just written. Lines are enqueued in index order, so that is the
// batch's last line.
func (bat *batcher) advance(batch []op) {
	for i := len(batch) - 1; i >= 0; i-- {
		if batch[i].line != nil {
			bat.durable.Store(batch[i].index)
			return
		}
	}
}

// writeBatch writes one accumulated batch: every artifact first, then all
// ledger lines in one durable AppendLedger call. Writing a batch's
// artifacts before any of its lines keeps each artifact durable no later
// than the record referencing it, and an artifact put again for every job
// does not split the lines into one fsync each.
func (bat *batcher) writeBatch(batch []op) error {
	var lines [][]byte
	for _, o := range batch {
		if o.artifactData == nil {
			lines = append(lines, o.line)
		} else if err := bat.b.PutArtifact(o.artifactDigest, o.artifactData); err != nil {
			return err
		}
	}
	if len(lines) == 0 {
		return nil
	}
	return bat.b.AppendLedger(lines)
}
