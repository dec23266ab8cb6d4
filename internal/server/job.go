package server

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"
)

// JobState is a job's position in its lifecycle.
type JobState string

const (
	// StateQueued: accepted, waiting for a worker.
	StateQueued JobState = "queued"
	// StateRunning: a worker is executing the job.
	StateRunning JobState = "running"
	// StateDone: finished successfully; the result is available.
	StateDone JobState = "done"
	// StateFailed: finished with an error (including timeout).
	StateFailed JobState = "failed"
	// StateCanceled: cancelled before completing (by request or drain).
	StateCanceled JobState = "canceled"
	// StateRequeued: pulled back out of the queue by a graceful drain before
	// any work ran; the job is safe to resubmit verbatim elsewhere.
	StateRequeued JobState = "requeued"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled || s == StateRequeued
}

// Event is one progress record of a running job, streamed as NDJSON.
type Event struct {
	// JobID identifies the job.
	JobID string `json:"job_id"`
	// Seq numbers events from 1 within the job.
	Seq int `json:"seq"`
	// State is the job state when the event fired.
	State JobState `json:"state"`
	// Stage names the work unit that completed ("F7", "secdir/prime+probe", …).
	Stage string `json:"stage,omitempty"`
	// Done and Total count completed work units; Total 0 means unknown.
	Done int `json:"done"`
	// Total is the job's stage count.
	Total int `json:"total"`
	// Err carries the failure message on a terminal failed event.
	Err string `json:"error,omitempty"`
}

// JobStatus is the JSON shape of GET /jobs/{id} (and the list endpoint).
type JobStatus struct {
	// ID is the server-assigned job identifier.
	ID string `json:"id"`
	// State is the current lifecycle state.
	State JobState `json:"state"`
	// Spec echoes the normalized submission.
	Spec JobSpec `json:"spec"`
	// Submitted, Started and Finished are lifecycle timestamps (zero until
	// reached).
	Submitted time.Time `json:"submitted"`
	// Started is when a worker picked the job up.
	Started time.Time `json:"started,omitempty"`
	// Finished is when the job reached a terminal state.
	Finished time.Time `json:"finished,omitempty"`
	// Progress is the latest progress event (nil before the first).
	Progress *Event `json:"progress,omitempty"`
	// Err is the failure message for failed jobs.
	Err string `json:"error,omitempty"`
}

// Job is one queued or running simulation request. All mutable state is
// guarded by mu; the server mutates jobs from worker goroutines while HTTP
// handlers read them.
//
// A job keeps for good only what its status, stream and result answers
// need; live holds the rest. A failed, canceled or requeued job drops live
// when it finishes. A done job keeps it, for its result, until the server
// sheds the result once its terminal ledger record is durable; from then on
// the result is read back from the store by digest. Without a store nothing
// becomes durable, so a done job keeps its result in memory.
type Job struct {
	// ID is the server-assigned identifier.
	ID string
	// Spec is the normalized submission.
	Spec JobSpec

	mu        sync.Mutex
	state     JobState
	submitted time.Time
	started   time.Time
	finished  time.Time
	err       error
	digest    string // a shed done job's result artifact
	live      *jobLive
	// marks are the job's progress events, reduced to the fields that vary
	// (eventLocked rebuilds the rest). A finished job keeps the newest of
	// each stage for as long as the server keeps the job.
	marks []mark
}

// jobLive is what a job needs only until it finishes or, for a done job,
// until its result is durable.
type jobLive struct {
	// ctx is the job's lifetime context; cancel aborts it. Both exist from
	// submission, so cancellation works while the job is still queued.
	ctx    context.Context
	cancel context.CancelFunc
	subs   map[chan Event]struct{}
	result any
}

// mark is one stored progress event. Every event is in state running but a
// finished job's last, which carries the job's terminal state and error.
type mark struct {
	seq         int
	stage       string
	done, total int
}

// newJob builds a queued job owning ctx (whose cancel function is cancel).
func newJob(id string, spec JobSpec, ctx context.Context, cancel context.CancelFunc, now time.Time) *Job {
	return &Job{
		ID:        id,
		Spec:      spec,
		state:     StateQueued,
		submitted: now,
		live:      &jobLive{ctx: ctx, cancel: cancel},
	}
}

// Status returns a consistent snapshot of the job for JSON encoding.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

// statusLocked is Status with j.mu held.
func (j *Job) statusLocked() JobStatus {
	st := JobStatus{
		ID:        j.ID,
		State:     j.state,
		Spec:      j.Spec,
		Submitted: j.submitted,
		Started:   j.started,
		Finished:  j.finished,
	}
	if n := len(j.marks); n > 0 {
		e := j.eventLocked(n - 1)
		st.Progress = &e
	}
	if j.err != nil {
		st.Err = j.err.Error()
	}
	return st
}

// Result returns the job's result, or an error if it is not (successfully)
// finished. A shed done job returns a nil result and the digest of the
// durable artifact that holds it.
func (j *Job) Result() (result any, digest string, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case StateDone:
		if j.live != nil {
			return j.live.result, "", nil
		}
		return nil, j.digest, nil
	case StateFailed, StateCanceled, StateRequeued:
		return nil, "", fmt.Errorf("job %s %s: %v", j.ID, j.state, j.err)
	default:
		return nil, "", fmt.Errorf("job %s is %s; no result yet", j.ID, j.state)
	}
}

// shed drops a done job's in-memory result once the result artifact named
// digest is durable.
func (j *Job) shed(digest string) {
	j.mu.Lock()
	j.live, j.digest = nil, digest
	j.mu.Unlock()
}

// State returns the current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Cancel aborts the job's context and, if the job had not started, marks it
// canceled immediately (a queued job's worker discards it on pickup). For a
// queued job, record is called with the canceled status before that state is
// published — with the job locked, so no worker can start it in between —
// and its error is returned. A running job's worker records its own end.
func (j *Job) Cancel(now time.Time, record func(JobStatus) error) error {
	var err error
	var cancel context.CancelFunc
	j.mu.Lock()
	if j.state == StateQueued {
		st := j.statusLocked()
		st.State, st.Finished, st.Err = StateCanceled, now, context.Canceled.Error()
		err = record(st)
		j.finishLocked(StateCanceled, nil, context.Canceled, now)
	}
	if j.live != nil {
		cancel = j.live.cancel // nil once finished
	}
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return err
}

// requeue marks a still-queued job requeued — the graceful-drain path that
// hands unstarted work back to the caller instead of dropping it. A job that
// already started is left alone.
func (j *Job) requeue(now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	ok := j.state == StateQueued
	if ok {
		j.finishLocked(StateRequeued, nil,
			fmt.Errorf("server draining before the job started; resubmit it"), now)
	}
	return ok
}

// start transitions queued → running and returns the job's context; ok is
// false if the job was cancelled while queued and must be discarded.
func (j *Job) start(now time.Time) (ctx context.Context, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return nil, false
	}
	j.state = StateRunning
	j.started = now
	j.emitLocked(Event{State: StateRunning, Stage: "start"})
	return j.live.ctx, true
}

// finish records the terminal state, result and error, and emits the final
// event to all stream subscribers.
func (j *Job) finish(state JobState, result any, err error, now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.finishLocked(state, result, err, now)
}

// finishLocked is finish with j.mu held.
func (j *Job) finishLocked(state JobState, result any, err error, now time.Time) {
	j.state = state
	j.err = err
	j.finished = now
	e := Event{State: state, Stage: "finish"}
	if n := len(j.marks); n > 0 {
		e.Done, e.Total = j.marks[n-1].done, j.marks[n-1].total
	}
	if err != nil {
		e.Err = err.Error()
	}
	j.emitLocked(e)
	j.marks = compactMarks(j.marks)
	// Terminal: wake the streamers and drop them, and release the context
	// (the worker that ran the job is done with it). Only a done job's
	// result outlives this.
	live := j.live
	for ch := range live.subs {
		close(ch)
	}
	live.cancel()
	live.ctx, live.cancel, live.subs, live.result = nil, nil, nil, result
	if state != StateDone {
		j.live = nil
	}
}

// progress records a stage completion and fans it out to subscribers.
func (j *Job) progress(stage string, done, total int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.emitLocked(Event{State: j.state, Stage: stage, Done: done, Total: total})
}

// compactMarks keeps the last event of each stage, in sequence order — for
// a finished job: start, one event per stage (a leak job's grid cell, an
// experiment) and finish. A long job's per-trial progress would otherwise
// stay in memory for as long as the server keeps the job. The result is a
// new, exactly sized slice, so the old backing array is released.
func compactMarks(marks []mark) []mark {
	lastOf := make(map[string]int, 8)
	for i, m := range marks {
		lastOf[m.stage] = i
	}
	out := make([]mark, 0, len(lastOf))
	for i, m := range marks {
		if lastOf[m.stage] == i {
			out = append(out, m)
		}
	}
	return out
}

// emitLocked numbers and stores an event and delivers it to subscribers
// without blocking: when a slow stream reader's buffer is full the event is
// dropped from its channel, never stalling the worker. The reader recovers
// what it missed, the terminal event included, from EventsAfter once the
// channel closes.
func (j *Job) emitLocked(e Event) {
	e.JobID = j.ID
	e.Seq = 1
	if n := len(j.marks); n > 0 {
		e.Seq = j.marks[n-1].seq + 1 // compaction keeps the newest event
	}
	j.marks = append(j.marks, mark{seq: e.Seq, stage: e.Stage, done: e.Done, total: e.Total})
	for ch := range j.live.subs {
		select {
		case ch <- e:
		default:
		}
	}
}

// eventLocked rebuilds stored event i; j.mu is held.
func (j *Job) eventLocked(i int) Event {
	m := j.marks[i]
	e := Event{JobID: j.ID, Seq: m.seq, State: StateRunning, Stage: m.stage, Done: m.done, Total: m.total}
	if i == len(j.marks)-1 && j.state.Terminal() {
		e.State = j.state
		if j.err != nil {
			e.Err = j.err.Error()
		}
	}
	return e
}

// eventsLocked rebuilds the stored events from index i on; j.mu is held.
func (j *Job) eventsLocked(i int) []Event {
	out := make([]Event, 0, len(j.marks)-i)
	for ; i < len(j.marks); i++ {
		out = append(out, j.eventLocked(i))
	}
	return out
}

// EventsAfter returns the retained events numbered after seq. Once the job
// is terminal they end with its terminal event.
func (j *Job) EventsAfter(seq int) []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.eventsLocked(sort.Search(len(j.marks), func(i int) bool { return j.marks[i].seq > seq }))
}

// Subscribe returns the events emitted so far plus a channel delivering
// subsequent ones; the channel is closed when the job reaches a terminal
// state. Call the returned cancel function when done reading.
func (j *Job) Subscribe() (history []Event, ch chan Event, unsub func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	history = j.eventsLocked(0)
	if j.state.Terminal() {
		ch = make(chan Event)
		close(ch)
		return history, ch, func() {}
	}
	// Buffered so emitLocked's non-blocking send usually lands; events it
	// drops are recovered through EventsAfter.
	ch = make(chan Event, 16)
	live := j.live
	if live.subs == nil {
		live.subs = map[chan Event]struct{}{}
	}
	live.subs[ch] = struct{}{}
	return history, ch, func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		delete(live.subs, ch)
	}
}
