package service

import (
	"context"
	"fmt"
	"sync"
)

// JobStatus is the lifecycle state of an async solve job.
type JobStatus string

const (
	JobQueued  JobStatus = "queued"
	JobRunning JobStatus = "running"
	JobDone    JobStatus = "done"
	JobFailed  JobStatus = "failed"
)

// Job is one async solve. Fields behind the mutex are read through the
// accessor methods; the HTTP layer serializes a Snapshot.
type Job struct {
	// ID is "job-<seq>".
	ID string
	// Spec is the solve request.
	Spec SolveSpec

	mu     sync.Mutex
	status JobStatus
	err    string
	result *Labeling
	cached bool
	done   chan struct{}
}

// JobSnapshot is an immutable view of a job for serialization.
type JobSnapshot struct {
	ID     string
	Spec   SolveSpec
	Status JobStatus
	Err    string
	// Cached reports whether the labeling came from the cache (no
	// algorithm execution happened for this job).
	Cached bool
	// Result is set once Status == JobDone.
	Result *Labeling
}

// Snapshot returns the job's current state.
func (j *Job) Snapshot() JobSnapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobSnapshot{ID: j.ID, Spec: j.Spec, Status: j.status, Err: j.err, Cached: j.cached, Result: j.result}
}

// Wait blocks until the job reaches a terminal state and returns it.
func (j *Job) Wait() JobSnapshot {
	<-j.done
	return j.Snapshot()
}

// WaitContext is Wait bounded by ctx: it returns ctx.Err() if the context
// ends first (the job keeps running; only the wait is abandoned). HTTP
// handlers use the request context here so disconnected clients and the
// shutdown drain window are not held hostage by a deep job queue.
func (j *Job) WaitContext(ctx context.Context) (JobSnapshot, error) {
	select {
	case <-j.done:
		return j.Snapshot(), nil
	case <-ctx.Done():
		return JobSnapshot{}, ctx.Err()
	}
}

// WaitJob is WaitContext that additionally aborts with ErrUnavailable
// once the service starts draining, so a wait=true handler blocked
// behind a deep job queue cannot hold http.Server.Shutdown past its
// deadline (the job itself keeps running and stays pollable).
func (s *Service) WaitJob(ctx context.Context, j *Job) (JobSnapshot, error) {
	select {
	case <-j.done:
		return j.Snapshot(), nil
	case <-ctx.Done():
		return JobSnapshot{}, ctx.Err()
	case <-s.draining:
		return JobSnapshot{}, fmt.Errorf("%w: shutting down", ErrUnavailable)
	}
}

func (j *Job) set(status JobStatus, result *Labeling, cached bool, err error) {
	j.mu.Lock()
	j.status = status
	j.result = result
	j.cached = cached
	if err != nil {
		j.err = err.Error()
	}
	j.mu.Unlock()
	if status == JobDone || status == JobFailed {
		close(j.done)
	}
}

// Submit enqueues an async solve and returns the job handle. The spec is
// validated (graph and algorithm must exist) before queueing so submit
// errors surface synchronously. The closed-check and the channel send
// happen under the service mutex Close also takes before closing the
// queue, so a concurrent Close yields an error here, never a send on a
// closed channel.
func (s *Service) Submit(spec SolveSpec) (*Job, error) {
	spec = s.withDefaultAlgo(spec)
	if _, _, err := s.Lookup(spec); err != nil {
		return nil, err // unknown graph or algorithm
	}
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: shutting down", ErrUnavailable)
	}
	s.jobSeq++
	job := &Job{ID: fmt.Sprintf("job-%d", s.jobSeq), Spec: spec, status: JobQueued, done: make(chan struct{})}
	select {
	case s.queue <- job:
	default:
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: job queue full (%d pending)", ErrUnavailable, cap(s.queue))
	}
	s.jobs[job.ID] = job
	s.mu.Unlock()
	s.counters.jobsSubmitted.Add(1)
	return job, nil
}

// Job returns a submitted job by ID.
func (s *Service) Job(id string) (*Job, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	job, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("service: unknown job %q: %w", id, ErrNotFound)
	}
	return job, nil
}

// worker drains the job queue until Close.
func (s *Service) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		job.set(JobRunning, nil, false, nil)
		l, cached, err := s.solve(job.Spec)
		// Retire before the terminal set: once Wait returns, the bounded
		// history (including this job's effect on older entries) is
		// already in place — no window where a waiter observes stale
		// history.
		s.retireJob(job.ID)
		if err != nil {
			s.counters.jobsFailed.Add(1)
			job.set(JobFailed, nil, false, err)
		} else {
			s.counters.jobsDone.Add(1)
			job.set(JobDone, l, cached, nil)
		}
	}
}

// retireJob records a terminal job in the bounded history, dropping the
// oldest completed jobs (and the labelings their results pin) past
// Config.JobHistory so the jobs map cannot grow without bound.
func (s *Service) retireJob(id string) {
	s.mu.Lock()
	s.jobHist = append(s.jobHist, id)
	for len(s.jobHist) > s.cfg.JobHistory {
		delete(s.jobs, s.jobHist[0])
		s.jobHist = s.jobHist[1:]
	}
	s.mu.Unlock()
}
