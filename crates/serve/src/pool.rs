//! The TCP front end's thread pools: the bounded, closable [`WorkQueue`]
//! both pools drain, and the study [`Executor`].
//!
//! The acceptor pushes connections onto one work queue for the connection
//! workers; connection workers push study jobs onto the executor's. The
//! executor is the TCP side of the request pipeline's execute step
//! ([`TuningService::execute`]): a connection worker submits a [`Job`] and
//! blocks on its reply, so a slow study occupies one executor slot, not a
//! connection slot, and cheap requests (stats, parse errors, coalesced
//! followers) keep flowing on other connections. Admission is bounded: when
//! the queue is full, [`Executor::run`] answers a structured `overloaded`
//! error *immediately* — the service sheds load instead of queueing without
//! bound.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};

use crate::request::{ServeError, TuningResponse};
use crate::service::{Job, TuningService};

/// A bounded FIFO that blocks its consumers until an item arrives or the
/// queue closes. Its lock ignores poisoning (the `parking_lot` shim): every
/// update is one container op under the guard, so a holder that panics
/// cannot leave the queue half-changed.
pub(crate) struct WorkQueue<T> {
    state: Mutex<(VecDeque<T>, bool)>,
    ready: Condvar,
    capacity: usize,
}

impl<T> WorkQueue<T> {
    /// An open queue holding at most `capacity` items (clamped to 1).
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new((VecDeque::new(), false)),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Appends `item`, or hands it back when the queue is full or closed.
    /// `gauge` sees the new length while the lock is still held.
    pub(crate) fn push(&self, item: T, gauge: impl FnOnce(usize)) -> Result<(), T> {
        let mut state = self.state.lock();
        let (items, closed) = &mut *state;
        if *closed || items.len() >= self.capacity {
            return Err(item);
        }
        items.push_back(item);
        gauge(items.len());
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the oldest item; `None` once the queue is closed and
    /// drained. `gauge` sees the remaining length under the lock.
    pub(crate) fn pop(&self, gauge: impl FnOnce(usize)) -> Option<T> {
        let mut state = self.state.lock();
        loop {
            if let Some(item) = state.0.pop_front() {
                gauge(state.0.len());
                return Some(item);
            }
            if state.1 {
                return None;
            }
            state = self.ready.wait(state);
        }
    }

    /// Refuses further pushes and wakes every consumer; what is queued is
    /// still handed out.
    pub(crate) fn close(&self) {
        self.state.lock().1 = true;
        self.ready.notify_all();
    }
}

/// A job on the executor's queue: the job, the channel its submitter blocks
/// on, and the submitter's trace id and submit timestamp
/// ([`phase_trace::wall_now_ns`]) when it is tracing — the worker
/// re-installs the context and records the queue wait from it.
struct Queued {
    job: Job,
    reply: mpsc::Sender<TuningResponse>,
    trace: Option<(u64, u64)>,
}

/// The bounded executor pool. Dropping it drains the queue and joins the
/// workers.
pub(crate) struct Executor {
    service: Arc<TuningService>,
    queue: Arc<WorkQueue<Queued>>,
    workers: Vec<JoinHandle<()>>,
}

impl Executor {
    /// Spawns `workers` executor threads sharing a queue capped at `depth`
    /// pending jobs (both clamped to at least 1).
    pub(crate) fn new(service: Arc<TuningService>, workers: usize, depth: usize) -> Self {
        let queue = Arc::new(WorkQueue::new(depth));
        let workers = (0..workers.max(1))
            .map(|_| {
                let (service, queue) = (Arc::clone(&service), Arc::clone(&queue));
                std::thread::spawn(move || worker_loop(&service, &queue))
            })
            .collect();
        Self {
            service,
            queue,
            workers,
        }
    }

    /// Admits a job if the queue has room and returns the channel its
    /// answer arrives on; hands the job back untouched when the queue is
    /// full so the caller can shed it with a structured error.
    pub(crate) fn submit(&self, job: Job) -> Result<mpsc::Receiver<TuningResponse>, Box<Job>> {
        let metrics = self.service.metrics();
        let kind = job.request.kind.name();
        let (reply, answer) = mpsc::channel();
        let trace = phase_trace::current_trace_id().map(|id| (id, phase_trace::wall_now_ns()));
        let queued = Queued { job, reply, trace };
        match self.queue.push(queued, |depth| {
            metrics.note_admitted(kind);
            metrics.queue_depth.store(depth as u64, Ordering::Relaxed);
            metrics
                .queue_hiwater
                .fetch_max(depth as u64, Ordering::Relaxed);
        }) {
            Ok(()) => Ok(answer),
            Err(queued) => {
                metrics.note_shed(kind);
                Err(Box::new(queued.job))
            }
        }
    }

    /// Runs `job` on the pool and blocks for its answer. A full queue
    /// answers `overloaded` at once; dropping the shed job abandons its
    /// flight, so its followers fall back instead of waiting.
    pub(crate) fn run(&self, job: Job) -> TuningResponse {
        let started = job.started;
        let (id, error) = match self.submit(job) {
            Ok(answer) => match answer.recv() {
                Ok(response) => return response,
                // The worker died outside the execute step's panic guard;
                // the loop keeps serving.
                Err(_) => (
                    None,
                    ServeError::internal("the execution worker disappeared mid-request"),
                ),
            },
            Err(job) => (
                Some(job.request.id),
                ServeError {
                    code: "overloaded",
                    message: format!(
                        "the request queue is full ({} pending); retry later",
                        self.service.metrics().queue_depth.load(Ordering::Relaxed)
                    ),
                },
            ),
        };
        // Counted under the error code, not the request kind: an unexecuted
        // request has no place in its kind's latency histogram.
        let code = error.code;
        let response = TuningResponse::Error { id, error };
        self.service.finish_request(code, started, &response);
        response
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop(service: &TuningService, queue: &WorkQueue<Queued>) {
    let metrics = service.metrics();
    while let Some(Queued { job, reply, trace }) =
        queue.pop(|depth| metrics.queue_depth.store(depth as u64, Ordering::Relaxed))
    {
        metrics.active_jobs.fetch_add(1, Ordering::Relaxed);
        // Join the submitting connection's trace on the executor lane; the
        // queue wait (stamped at submission on the connection thread) is
        // recorded retroactively so the timeline has no admission gap.
        let _trace_ctx = trace.map(|(trace_id, submitted_ns)| {
            let guard = phase_trace::install(trace_id, phase_trace::Lane::Exec, 0);
            phase_trace::span_closed("queue_wait", submitted_ns, phase_trace::wall_now_ns());
            guard
        });
        // A dropped receiver just means the connection went away mid-study.
        let _ = reply.send(service.execute(job));
        metrics.active_jobs.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{RequestKind, TuningRequest};
    use crate::service::ServiceConfig;
    use std::time::{Duration, Instant};

    /// A job that panics inside `resolve_outcome`: a `stats` request is never
    /// supposed to reach resolution, so the resolver's invariant check blows.
    /// Without the execute step's panic guard this would kill the worker
    /// thread: the reply channel drops and the pool shrinks for the life of
    /// the process.
    fn panicking_job() -> Job {
        Job {
            request: TuningRequest::new("boom", RequestKind::Stats),
            completion: None,
            started: Instant::now(),
        }
    }

    /// Waits (bounded: a dead worker fails the test instead of hanging it)
    /// for an answer that must name the panic.
    fn expect_panic_answer(answer: mpsc::Receiver<TuningResponse>) {
        let response = answer
            .recv_timeout(Duration::from_secs(30))
            .expect("the worker answered despite the panic");
        match response {
            TuningResponse::Error { error, .. } => {
                assert_eq!(error.code, "internal");
                assert!(
                    error.message.contains("panicked"),
                    "the error names the panic: {}",
                    error.message
                );
            }
            other => panic!("expected a structured error, got {other:?}"),
        }
    }

    #[test]
    fn a_panicking_request_becomes_a_structured_internal_error() {
        let service = Arc::new(
            TuningService::new(ServiceConfig::with_threads(1)).expect("cold start cannot fail"),
        );
        let executor = Executor::new(Arc::clone(&service), 1, 4);
        let answer = executor
            .submit(panicking_job())
            .ok()
            .expect("the queue has room");
        expect_panic_answer(answer);
    }

    #[test]
    fn the_worker_pool_survives_panicking_requests() {
        let service = Arc::new(
            TuningService::new(ServiceConfig::with_threads(1)).expect("cold start cannot fail"),
        );
        // One worker: if the panic killed it, the second job would never be
        // answered — answering both proves the same thread kept serving.
        let executor = Executor::new(Arc::clone(&service), 1, 4);
        for _ in 0..2 {
            let answer = executor
                .submit(panicking_job())
                .ok()
                .expect("the queue has room");
            expect_panic_answer(answer);
        }
    }
}
