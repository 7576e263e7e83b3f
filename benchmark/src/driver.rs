//! The load generator: one driver thread, closed loop, one outstanding push
//! per stream. A *pass* sets a workload up from scratch, pushes every frame,
//! drains, and scores the result; a run is `K` passes whose per-operation
//! medians become the reported timings.

use crate::calib::HostClock;
use crate::proc;
use crate::span::{Tracer, NO_INDEX};
use crate::sut::{self, FrameRecord, LayerCounts, Server, StoreProbe, StoreRig, StreamOutput};
use crate::workload::Workload;
use std::time::Instant;

/// What one pass measured. Raw seconds; `*_cal` index the host-calibration
/// sample taken immediately before the timed operation.
#[derive(Debug, Clone, Default)]
pub struct PassOutcome {
    /// Set-up wall times: synthesis, `Arc`-sharing, server/stream/store
    /// construction, up to the first push. The pass sets up
    /// [`SETUPS_PER_PASS`] times and runs on the last.
    pub setup_raw_s: Vec<f64>,
    /// Calibration sample of each set-up.
    pub setup_cal: Vec<usize>,
    /// Every timed driver-thread operation of the loop, in order: pushes
    /// (replays included), recoveries, drains.
    pub op_raw_s: Vec<f64>,
    /// Calibration sample of each operation.
    pub op_cal: Vec<usize>,
    /// Kind of each operation.
    pub op_kind: Vec<OpKind>,
    /// `(stream, frame)` each push pushed (`None` for other operations).
    pub op_target: Vec<Option<(usize, usize)>>,
    /// Push → record latency of every unique frame, stream-major.
    pub latency_raw_s: Vec<f64>,
    /// Calibration sample of each latency (taken before its push).
    pub latency_cal: Vec<usize>,
    /// Completed records in arrival order, with the calibration sample of
    /// their push: the program's own stage times per frame.
    pub records: Vec<(usize, FrameRecord, usize)>,
    /// Wall time first push → last record drained.
    pub loop_wall_s: f64,
    /// Process CPU seconds consumed over the same interval.
    pub loop_cpu_s: f64,
    /// Mean frames pushed-but-not-completed, sampled after every push
    /// (traced passes only).
    pub mean_inflight: f64,
    /// Final outputs per stream.
    pub outputs: Vec<StreamOutput>,
    /// Exact work counts, summed over streams.
    pub counts: LayerCounts,
    /// Operations attempted: pushes + commits + restores.
    pub attempted: u64,
    /// Operations failed, with a message each.
    pub failures: Vec<String>,
    /// Checkpoint generations committed.
    pub commits: u64,
    /// Server losses recovered from.
    pub recoveries: u64,
    /// Frames pushed again after a restore.
    pub replayed_frames: u64,
    /// Frames whose record went down with a lost server although the state
    /// restored afterwards already contained them (a commit had drained
    /// them into the server's hand-back buffer). They have no latency.
    pub unreported_frames: u64,
    /// Store-layer readings (traced passes of durable workloads only).
    pub store: Option<sut::StoreReadings>,
}

/// Set-ups per pass. A set-up is tens of milliseconds — a single one is the
/// kind of timing the benchmark otherwise refuses to report — so every pass
/// repeats it and the run reports the median of all of them.
pub const SETUPS_PER_PASS: usize = 3;

/// Kind of a timed loop operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `push_frame` of a frame the stream had not completed.
    Push,
    /// `push_frame` during which the server committed a checkpoint.
    CommitPush,
    /// Server loss: drop, fresh server, attach, lazy restore.
    Recover,
    /// `finish_stream`.
    Finish,
}

/// What a traced pass records into, and what it calls between operations.
pub struct Tracing<'a> {
    /// The span recorder.
    pub tracer: &'a mut Tracer,
    /// Called after every push, outside the push's span, with the server,
    /// the inputs, the `(stream, frame)` just pushed, the host clock and the
    /// recorder.
    #[allow(clippy::type_complexity)]
    pub after_push: &'a mut dyn FnMut(
        &Server,
        &[sut::InputStream],
        (usize, usize),
        &mut HostClock,
        &mut Tracer,
    ),
}

/// Runs one pass of `workload` on `seed`. With a `tracer`, spans are
/// recorded around every public call and the stores are wrapped in counting
/// probes; without one, nothing of the kind exists. `score` also evaluates
/// ATE and PSNR of the final state (about a second); every pass is
/// fingerprinted either way, and equal fingerprints mean equal scores.
pub fn run_pass(
    workload: &Workload,
    seed: u64,
    clock: &mut HostClock,
    score: bool,
    tracing: Option<Tracing<'_>>,
) -> PassOutcome {
    let mut out = PassOutcome::default();
    let (mut tracer, mut after_push) = match tracing {
        Some(Tracing { tracer, after_push }) => (Some(tracer), Some(after_push)),
        None => (None, None),
    };
    let probe = tracer.is_some().then(StoreProbe::default);

    // --- Set-up (timed as `setup_s`). -----------------------------------
    let mut built = None;
    for _ in 0..SETUPS_PER_PASS {
        drop(built.take());
        let cal = clock.tick();
        let setup_start = Instant::now();
        let inputs = sut::synthesize_all(workload, seed);
        let rig = match &workload.durability {
            Some(_) => match StoreRig::start(probe.as_ref()) {
                Ok(rig) => Some(rig),
                Err(e) => {
                    out.failures.push(e);
                    return out;
                }
            },
            None => None,
        };
        let mut server = Server::start(workload);
        if let Some(rig) = &rig {
            if let Err(e) = server.attach_store(rig, probe.as_ref()) {
                out.failures.push(format!("attach: {e}"));
                return out;
            }
        }
        out.setup_raw_s.push(setup_start.elapsed().as_secs_f64());
        out.setup_cal.push(cal);
        built = Some((inputs, rig, server));
    }
    let (inputs, rig, mut server) = built.expect("SETUPS_PER_PASS is at least one");

    // --- Timed loop. ------------------------------------------------------
    let lens: Vec<usize> = inputs.iter().map(sut::InputStream::len).collect();
    let crash_after: &[usize] = workload.durability.as_ref().map_or(&[], |d| &d.crash_after);
    let mut next_crash = 0usize;
    let mut next = vec![0usize; lens.len()];
    let mut book = LatencyBook::new(&lens);
    let mut inflight_sum = 0usize;
    let mut pushes = 0u64;
    let mut store_readings = sut::StoreReadings::default();

    let cpu_start = proc::cpu_s();
    let loop_start = Instant::now();
    'streams: while next.iter().zip(&lens).any(|(n, len)| n < len) {
        for stream in 0..lens.len() {
            if next[stream] >= lens[stream] {
                continue;
            }
            let frame = next[stream];
            let commits_before = tracer.is_some().then(|| server.commits());
            let (result, op) = timed(clock, &mut tracer, "op.push", stream, frame as u32, |_| {
                server.push(&inputs, stream, frame)
            });
            let committed = commits_before.is_some_and(|before| server.commits() > before);
            let kind = if committed { OpKind::CommitPush } else { OpKind::Push };
            out.record_op(kind, Some((stream, frame)), &op);
            book.pushed(stream, frame, op.start, op.cal);
            pushes += 1;
            match result {
                Ok(Some(record)) => book.completed(&mut out, stream, record, op.end),
                Ok(None) => {}
                Err(e) => {
                    out.failures.push(format!("push {stream}/{frame}: {e}"));
                    break 'streams;
                }
            }
            if let (Some(t), Some(hook)) = (tracer.as_deref_mut(), after_push.as_deref_mut()) {
                inflight_sum += server.inflight();
                hook(&server, &inputs, (stream, frame), clock, t);
            }
            next[stream] += 1;

            if crash_after.get(next_crash) == Some(&frame) {
                // Lose the server with whatever it had in flight; a fresh
                // one re-attaches, restores lazily and the stream resumes
                // from the restored frame count. (Crash points ascend, so a
                // replayed frame never crashes the server twice.)
                next_crash += 1;
                let rig = rig.as_ref().expect("durable workloads have a store rig");
                if tracer.is_some() {
                    store_readings.absorb(&mut server);
                }
                out.commits += server.commits();
                let ((fresh, resumed), op) =
                    timed(clock, &mut tracer, "op.recover", stream, NO_INDEX, |tracer| {
                        recover(workload, rig, server, probe.as_ref(), tracer)
                    });
                out.record_op(OpKind::Recover, None, &op);
                server = fresh;
                match resumed {
                    Ok(resume) => {
                        let resume = resume.min(next[stream]);
                        out.recoveries += 1;
                        out.unreported_frames += book.covered_by_restore(stream, resume);
                        out.replayed_frames += (next[stream] - resume) as u64;
                        next[stream] = resume;
                    }
                    Err(e) => {
                        out.failures.push(format!("recover after frame {frame}: {e}"));
                        break 'streams;
                    }
                }
            }
        }
    }
    for stream in 0..lens.len() {
        let (result, op) =
            timed(clock, &mut tracer, "op.finish", stream, NO_INDEX, |_| server.finish(stream));
        out.record_op(OpKind::Finish, None, &op);
        match result {
            Ok(records) => {
                for record in records {
                    book.completed(&mut out, stream, record, op.end);
                }
            }
            Err(e) => out.failures.push(format!("finish {stream}: {e}")),
        }
    }
    out.loop_wall_s = loop_start.elapsed().as_secs_f64();
    out.loop_cpu_s = proc::cpu_s() - cpu_start;
    out.mean_inflight = if pushes > 0 { inflight_sum as f64 / pushes as f64 } else { 0.0 };

    // --- Scoring (untimed). ----------------------------------------------
    out.commits += server.commits();
    out.attempted += out.commits;
    book.close(&mut out);
    if out.failures.is_empty() {
        match server.outputs(&inputs, score) {
            Ok(outputs) => out.outputs = outputs,
            Err(e) => out.failures.push(e),
        }
        out.counts = server.layer_counts();
    }
    if let (Some(probe), Some(_)) = (&probe, &rig) {
        store_readings.absorb(&mut server);
        store_readings.finish(probe);
        out.store = Some(store_readings);
    }
    out
}

/// When a timed operation ran, and which calibration sample preceded it.
struct Timed {
    cal: usize,
    start: Instant,
    end: Instant,
}

/// Times `op` on the driver thread: a calibration sample first, then — in a
/// traced pass — a span around it, which `op` may nest further spans in.
fn timed<R>(
    clock: &mut HostClock,
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    stream: usize,
    frame: u32,
    op: impl FnOnce(Option<&mut Tracer>) -> R,
) -> (R, Timed) {
    let cal = clock.tick();
    let span = tracer.as_mut().map(|t| t.begin(name, stream as u32, frame, cal));
    let start = Instant::now();
    let result = op(tracer.as_deref_mut());
    let end = Instant::now();
    if let (Some(t), Some(id)) = (tracer.as_mut(), span) {
        t.end(id);
    }
    (result, Timed { cal, start, end })
}

impl PassOutcome {
    /// Files one timed loop operation. Pushes and recoveries are attempted
    /// operations; a drain is not.
    fn record_op(&mut self, kind: OpKind, target: Option<(usize, usize)>, op: &Timed) {
        self.op_raw_s.push((op.end - op.start).as_secs_f64());
        self.op_cal.push(op.cal);
        self.op_kind.push(kind);
        self.op_target.push(target);
        self.attempted += u64::from(kind != OpKind::Finish);
    }
}

/// Push instants and push → record latencies of every unique frame. A frame
/// pushed again after a restore overwrites its earlier entry: the latency
/// reported is that of the push whose record became part of the final state.
struct LatencyBook {
    pushed_at: Vec<Vec<Option<(Instant, usize)>>>,
    latency: Vec<Vec<Option<(f64, usize)>>>,
    /// Frames that will never report: see [`Self::covered_by_restore`].
    unreported: Vec<Vec<bool>>,
}

impl LatencyBook {
    fn new(lens: &[usize]) -> Self {
        Self {
            pushed_at: lens.iter().map(|&n| vec![None; n]).collect(),
            latency: lens.iter().map(|&n| vec![None; n]).collect(),
            unreported: lens.iter().map(|&n| vec![false; n]).collect(),
        }
    }

    /// After a restore that resumes `stream` at frame `resume`: frames below
    /// it are part of the restored state and will not be pushed again, so
    /// one that never reported (its record was in the lost server's
    /// hand-back buffer) never will. Returns how many there are.
    fn covered_by_restore(&mut self, stream: usize, resume: usize) -> u64 {
        let mut count = 0;
        for frame in 0..resume.min(self.latency[stream].len()) {
            if self.latency[stream][frame].is_none() && !self.unreported[stream][frame] {
                self.unreported[stream][frame] = true;
                count += 1;
            }
        }
        count
    }

    fn pushed(&mut self, stream: usize, frame: usize, start: Instant, cal: usize) {
        self.pushed_at[stream][frame] = Some((start, cal));
    }

    fn completed(
        &mut self,
        out: &mut PassOutcome,
        stream: usize,
        record: FrameRecord,
        now: Instant,
    ) {
        match self.pushed_at[stream].get(record.frame).copied().flatten() {
            Some((start, cal)) => {
                self.latency[stream][record.frame] = Some(((now - start).as_secs_f64(), cal));
                out.records.push((stream, record, cal));
            }
            None => out.failures.push(format!(
                "stream {stream}: record for frame {} that was never pushed",
                record.frame
            )),
        }
    }

    /// Moves the latencies into `out`, stream-major; a frame without a
    /// record is a failed operation unless a restore covered it.
    fn close(self, out: &mut PassOutcome) {
        for (stream, frames) in self.latency.into_iter().enumerate() {
            for (frame, entry) in frames.into_iter().enumerate() {
                match entry {
                    Some((seconds, cal)) => {
                        out.latency_raw_s.push(seconds);
                        out.latency_cal.push(cal);
                    }
                    None if self.unreported[stream][frame] => {}
                    None => {
                        out.failures.push(format!("stream {stream}: no record for frame {frame}"))
                    }
                }
            }
        }
    }
}

/// Replaces a lost server: the old incarnation is dropped without a final
/// checkpoint, a fresh one attaches to the surviving store and restores
/// lazily. Returns the fresh server and the frame count it resumes at (or
/// why it could not).
fn recover(
    workload: &Workload,
    rig: &StoreRig,
    lost: Server,
    probe: Option<&StoreProbe>,
    mut tracer: Option<&mut Tracer>,
) -> (Server, Result<usize, String>) {
    // Child spans of the caller's `op.recover` (whose calibration sample
    // they inherit).
    fn step<R>(tracer: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
        match tracer {
            Some(t) => t.scoped(name, 0, NO_INDEX, 0, |_| f()),
            None => f(),
        }
    }
    step(&mut tracer, "server.drop", || drop(lost));
    let mut fresh = step(&mut tracer, "server.start", || Server::start(workload));
    if let Err(e) = step(&mut tracer, "store.attach", || fresh.attach_store(rig, probe)) {
        return (fresh, Err(format!("attach: {e}")));
    }
    let resumed =
        step(&mut tracer, "store.restore", || fresh.restore()).map_err(|e| format!("restore: {e}"));
    (fresh, resumed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{self, Durability, Pipeline, StreamSpec};

    /// `steady_map` shrunk to a fraction of a second.
    fn tiny(frames: usize) -> Workload {
        let mut w = workload::by_name("steady_map").expect("suite has steady_map");
        w.width = 32;
        w.height = 24;
        w.streams = vec![StreamSpec { generated_frames: frames, ..w.streams[0] }];
        w
    }

    #[test]
    fn a_serial_pass_times_every_push_and_every_frame_once() {
        let w = tiny(6);
        let mut clock = HostClock::new();
        let pass = run_pass(&w, 3, &mut clock, true, None);
        assert!(pass.failures.is_empty(), "{:?}", pass.failures);
        assert_eq!(pass.setup_raw_s.len(), SETUPS_PER_PASS);
        assert_eq!(pass.op_kind.iter().filter(|k| **k == OpKind::Push).count(), 6);
        assert_eq!(pass.op_kind.last(), Some(&OpKind::Finish));
        assert_eq!(pass.op_raw_s.len(), 7);
        assert_eq!(pass.latency_raw_s.len(), 6, "one latency per unique frame");
        assert_eq!((pass.attempted, pass.recoveries, pass.commits), (6, 0, 0));
        assert_eq!(pass.records.len(), 6);
        let out = &pass.outputs[0];
        assert_eq!(out.frames, 6);
        assert!(out.ate_cm > 0.0 && out.psnr_db > 0.0 && out.map_bytes > 0, "{out:?}");
        // Every span points at a calibration sample taken in this pass.
        assert!(pass.op_cal.iter().all(|&c| c < clock.samples_ms().len()));
        // Same seed, same bits; another seed, other bits (6 frames < the
        // noisy tail, so every frame differs).
        let again = run_pass(&w, 3, &mut clock, false, None);
        assert_eq!(again.outputs[0].fingerprint(), out.fingerprint());
        assert_eq!(again.outputs[0].ate_cm, 0.0, "unscored passes carry no scores");
        let other = run_pass(&w, 4, &mut clock, false, None);
        assert_ne!(other.outputs[0].fingerprint(), out.fingerprint());
    }

    #[test]
    fn a_durable_pass_loses_its_server_twice_and_still_equals_the_serial_run() {
        let serial = tiny(12);
        let mut durable = tiny(12);
        durable.pipeline = Pipeline::Overlapped(1);
        durable.durability = Some(Durability { commit_every: 2, crash_after: vec![5, 9] });
        let mut clock = HostClock::new();
        let reference = run_pass(&serial, 5, &mut clock, false, None);
        let pass = run_pass(&durable, 5, &mut clock, false, None);
        assert!(pass.failures.is_empty(), "{:?}", pass.failures);
        assert_eq!(pass.recoveries, 2);
        assert!(pass.commits > 0 && pass.replayed_frames > 0, "{pass:?}");
        assert_eq!(pass.op_kind.iter().filter(|k| **k == OpKind::Recover).count(), 2);
        assert_eq!(
            pass.attempted,
            12 + pass.replayed_frames + pass.commits + 2,
            "pushes incl. replays + commits + restores"
        );
        assert_eq!(
            pass.latency_raw_s.len() as u64 + pass.unreported_frames,
            12,
            "replayed frames are counted once; a record lost with its server has no latency"
        );
        assert_eq!(
            pass.outputs[0].fingerprint(),
            reference.outputs[0].fingerprint(),
            "Serial == Overlapped == restored"
        );
    }

    #[test]
    fn a_traced_pass_records_spans_and_changes_no_output() {
        let mut w = tiny(12);
        w.pipeline = Pipeline::Overlapped(1);
        w.durability = Some(Durability { commit_every: 3, crash_after: vec![7] });
        let mut clock = HostClock::new();
        let plain = run_pass(&w, 9, &mut clock, false, None);
        let mut tracer = Tracer::new();
        let mut pushed = Vec::new();
        let mut hook = |server: &Server,
                        _: &[sut::InputStream],
                        target: (usize, usize),
                        _: &mut HostClock,
                        _: &mut Tracer| {
            pushed.push((target, server.inflight()));
        };
        let traced = run_pass(
            &w,
            9,
            &mut clock,
            false,
            Some(Tracing { tracer: &mut tracer, after_push: &mut hook }),
        );
        assert!(traced.failures.is_empty(), "{:?}", traced.failures);
        assert_eq!(traced.outputs[0].fingerprint(), plain.outputs[0].fingerprint());
        assert_eq!(
            pushed.len(),
            traced
                .op_kind
                .iter()
                .filter(|k| **k != OpKind::Finish && **k != OpKind::Recover)
                .count()
        );
        let names: Vec<&str> = tracer.spans().iter().map(|s| s.name).collect();
        for expected in
            ["op.push", "op.recover", "server.drop", "store.attach", "store.restore", "op.finish"]
        {
            assert!(names.contains(&expected), "no {expected} span in {names:?}");
        }
        let recover = tracer.spans().iter().find(|s| s.name == "op.recover").unwrap();
        let restore = tracer.spans().iter().find(|s| s.name == "store.restore").unwrap();
        assert_eq!(restore.parent, Some(recover.id));
        assert!(traced.op_kind.contains(&OpKind::CommitPush), "commit pushes are told apart");
        let store = traced.store.as_ref().expect("traced durable passes read the store");
        assert!(store.client.puts > 0 && store.server.puts == store.client.puts, "{store:?}");
        assert!(store.client.gets > 0 && store.client.put_bytes > 0);
        assert!(plain.store.is_none(), "an untraced pass wraps nothing");
    }
}
