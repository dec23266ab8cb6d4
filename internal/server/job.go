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
	result    any
	err       error

	// ctx is the job's lifetime context; cancel aborts it. Both are set
	// when the job is created so cancellation works while still queued.
	ctx    context.Context
	cancel context.CancelFunc

	seq    int
	last   *Event
	subs   map[chan Event]struct{}
	events []Event
}

// newJob builds a queued job owning ctx (whose cancel function is cancel).
func newJob(id string, spec JobSpec, ctx context.Context, cancel context.CancelFunc, now time.Time) *Job {
	return &Job{
		ID:        id,
		Spec:      spec,
		state:     StateQueued,
		submitted: now,
		ctx:       ctx,
		cancel:    cancel,
		subs:      map[chan Event]struct{}{},
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
	if j.last != nil {
		e := *j.last
		st.Progress = &e
	}
	if j.err != nil {
		st.Err = j.err.Error()
	}
	return st
}

// Result returns the job's result, or an error if it is not (successfully)
// finished.
func (j *Job) Result() (any, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case StateDone:
		return j.result, nil
	case StateFailed, StateCanceled, StateRequeued:
		return nil, fmt.Errorf("job %s %s: %v", j.ID, j.state, j.err)
	default:
		return nil, fmt.Errorf("job %s is %s; no result yet", j.ID, j.state)
	}
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
	j.mu.Lock()
	if j.state == StateQueued {
		st := j.statusLocked()
		st.State, st.Finished, st.Err = StateCanceled, now, context.Canceled.Error()
		err = record(st)
		j.finishLocked(StateCanceled, nil, context.Canceled, now)
	}
	j.mu.Unlock()
	j.cancel()
	return err
}

// requeue marks a still-queued job requeued — the graceful-drain path that
// hands unstarted work back to the caller instead of dropping it. A job that
// already started is left alone.
func (j *Job) requeue(now time.Time) bool {
	j.mu.Lock()
	ok := j.state == StateQueued
	if ok {
		j.finishLocked(StateRequeued, nil,
			fmt.Errorf("server draining before the job started; resubmit it"), now)
	}
	j.mu.Unlock()
	if ok {
		j.cancel()
	}
	return ok
}

// start transitions queued → running; returns false if the job was cancelled
// while queued and must be discarded.
func (j *Job) start(now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = now
	j.emitLocked(Event{State: StateRunning, Stage: "start"})
	return true
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
	j.result = result
	j.err = err
	j.finished = now
	e := Event{State: state, Stage: "finish"}
	if j.last != nil {
		e.Done, e.Total = j.last.Done, j.last.Total
	}
	if err != nil {
		e.Err = err.Error()
	}
	j.emitLocked(e)
	j.events = compactEvents(j.events)
	j.last = &j.events[len(j.events)-1]
	// Terminal: wake the streamers and drop them.
	for ch := range j.subs {
		close(ch)
	}
	j.subs = map[chan Event]struct{}{}
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

// compactEvents keeps the last event of each stage, in sequence order — for
// a finished job: start, one event per stage (a leak job's grid cell, an
// experiment) and finish. A long job's per-trial progress would otherwise
// stay in memory for as long as the server keeps the job. The result is a
// new, exactly sized slice, so the old backing array is released.
func compactEvents(events []Event) []Event {
	lastOf := make(map[string]int, 8)
	for i, e := range events {
		lastOf[e.Stage] = i
	}
	out := make([]Event, 0, len(lastOf))
	for i, e := range events {
		if lastOf[e.Stage] == i {
			out = append(out, e)
		}
	}
	return out
}

// emitLocked stamps and stores an event and delivers it to subscribers
// without blocking: when a slow stream reader's buffer is full the event is
// dropped from its channel, never stalling the worker. The reader recovers
// what it missed, the terminal event included, from EventsAfter once the
// channel closes.
func (j *Job) emitLocked(e Event) {
	j.seq++
	e.JobID = j.ID
	e.Seq = j.seq
	j.events = append(j.events, e)
	j.last = &j.events[len(j.events)-1]
	for ch := range j.subs {
		select {
		case ch <- e:
		default:
		}
	}
}

// EventsAfter returns the retained events numbered after seq. Once the job
// is terminal they end with its terminal event.
func (j *Job) EventsAfter(seq int) []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	i := sort.Search(len(j.events), func(i int) bool { return j.events[i].Seq > seq })
	return append([]Event(nil), j.events[i:]...)
}

// Subscribe returns the events emitted so far plus a channel delivering
// subsequent ones; the channel is closed when the job reaches a terminal
// state. Call the returned cancel function when done reading.
func (j *Job) Subscribe() (history []Event, ch chan Event, unsub func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	history = append([]Event(nil), j.events...)
	if j.state.Terminal() {
		ch = make(chan Event)
		close(ch)
		return history, ch, func() {}
	}
	// Buffered so emitLocked's non-blocking send usually lands; events it
	// drops are recovered through EventsAfter.
	ch = make(chan Event, 16)
	j.subs[ch] = struct{}{}
	return history, ch, func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		if _, ok := j.subs[ch]; ok {
			delete(j.subs, ch)
		}
	}
}
