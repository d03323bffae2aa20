//! Hierarchical span tracer: RAII guards over thread-local stacks,
//! per-worker buffers merged deterministically by folded path at flush,
//! folded-stack (`flamegraph.pl`) and JSONL journal exporters.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Write};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Journal events retained per thread; beyond this, spans still fold
/// (aggregates are never dropped) but journal lines are counted into
/// `Trace::dropped` instead of stored.
const JOURNAL_CAP_PER_THREAD: usize = 1 << 16;

const NO_PARENT: u32 = u32::MAX;

/// Process-wide time zero for journal timestamps (first span wins).
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn sink() -> &'static Mutex<Vec<ThreadDump>> {
    static SINK: Mutex<Vec<ThreadDump>> = Mutex::new(Vec::new());
    &SINK
}

fn sink_push(dump: ThreadDump) {
    let mut guard = sink().lock().unwrap_or_else(|e| e.into_inner());
    guard.push(dump);
}

/// Aggregate cell for one folded path: call count, inclusive time, and
/// self time (inclusive minus time attributed to child spans).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FoldedCell {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl FoldedCell {
    fn merge(&mut self, other: &FoldedCell) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.self_ns += other.self_ns;
    }
}

/// One completed span occurrence, resolved for the journal.
#[derive(Debug, Clone)]
pub struct JournalEvent {
    /// Full folded path, `;`-joined (`scenario;epoch;solve`).
    pub path: String,
    /// Nesting depth (0 = root span).
    pub depth: u16,
    /// Start offset from the process trace epoch, nanoseconds.
    pub start_ns: u64,
    /// Inclusive duration, nanoseconds.
    pub dur_ns: u64,
    /// Optional static attribute (`round = 3`).
    pub attr: Option<(&'static str, i64)>,
}

#[derive(Clone, Copy)]
struct PathNode {
    parent: u32,
    name: &'static str,
}

struct Frame {
    path: u32,
    start: Instant,
    start_ns: u64,
    child_ns: u64,
    attr: Option<(&'static str, i64)>,
}

struct RawEvent {
    path: u32,
    depth: u16,
    start_ns: u64,
    dur_ns: u64,
    attr: Option<(&'static str, i64)>,
}

struct ThreadDump {
    folded: Vec<(String, FoldedCell)>,
    events: Vec<JournalEvent>,
    dropped: u64,
}

#[derive(Default)]
struct ThreadTracer {
    paths: Vec<PathNode>,
    lookup: HashMap<(u32, &'static str), u32>,
    stack: Vec<Frame>,
    folded: Vec<FoldedCell>,
    events: Vec<RawEvent>,
    dropped: u64,
}

impl ThreadTracer {
    fn intern(&mut self, parent: u32, name: &'static str) -> u32 {
        if let Some(&id) = self.lookup.get(&(parent, name)) {
            return id;
        }
        let id = self.paths.len() as u32;
        self.paths.push(PathNode { parent, name });
        self.folded.push(FoldedCell::default());
        self.lookup.insert((parent, name), id);
        id
    }

    fn open(&mut self, name: &'static str, attr: Option<(&'static str, i64)>) {
        let parent = self.stack.last().map_or(NO_PARENT, |f| f.path);
        let path = self.intern(parent, name);
        let zero = epoch();
        let start = Instant::now();
        let start_ns = start.duration_since(zero).as_nanos() as u64;
        self.stack.push(Frame {
            path,
            start,
            start_ns,
            child_ns: 0,
            attr,
        });
    }

    /// Closes the innermost open span; returns its inclusive duration.
    fn close(&mut self) -> Option<u64> {
        let frame = self.stack.pop()?;
        let dur_ns = frame.start.elapsed().as_nanos() as u64;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur_ns;
        }
        let cell = &mut self.folded[frame.path as usize];
        cell.count += 1;
        cell.total_ns += dur_ns;
        cell.self_ns += dur_ns.saturating_sub(frame.child_ns);
        if self.events.len() < JOURNAL_CAP_PER_THREAD {
            self.events.push(RawEvent {
                path: frame.path,
                depth: self.stack.len() as u16,
                start_ns: frame.start_ns,
                dur_ns,
                attr: frame.attr,
            });
        } else {
            self.dropped += 1;
        }
        Some(dur_ns)
    }

    fn path_string(&self, mut id: u32) -> String {
        let mut names = Vec::new();
        while id != NO_PARENT {
            let node = self.paths[id as usize];
            names.push(node.name);
            id = node.parent;
        }
        names.reverse();
        names.join(";")
    }

    /// Move all completed-span data out of this thread's buffers,
    /// resolving path ids to strings. Open spans stay on the stack and
    /// are reported when they eventually close.
    fn take_dump(&mut self) -> Option<ThreadDump> {
        if self.dropped == 0 && self.folded.iter().all(|c| c.count == 0) {
            self.events.clear();
            return None;
        }
        let folded = self
            .folded
            .iter()
            .enumerate()
            .filter(|(_, cell)| cell.count > 0)
            .map(|(id, cell)| (self.path_string(id as u32), *cell))
            .collect();
        for cell in &mut self.folded {
            *cell = FoldedCell::default();
        }
        let raw_events = std::mem::take(&mut self.events);
        let events = raw_events
            .into_iter()
            .map(|e| JournalEvent {
                path: self.path_string(e.path),
                depth: e.depth,
                start_ns: e.start_ns,
                dur_ns: e.dur_ns,
                attr: e.attr,
            })
            .collect();
        let dropped = std::mem::take(&mut self.dropped);
        Some(ThreadDump {
            folded,
            events,
            dropped,
        })
    }
}

/// Wrapper whose Drop flushes the thread's buffers into the global sink
/// when the thread exits (sweep workers are short-lived scoped threads, so
/// their spans land in the sink at scope join).
struct TracerCell(RefCell<ThreadTracer>);

impl Drop for TracerCell {
    fn drop(&mut self) {
        if let Some(dump) = self.0.borrow_mut().take_dump() {
            sink_push(dump);
        }
    }
}

thread_local! {
    static TRACER: TracerCell = TracerCell(RefCell::new(ThreadTracer::default()));
}

/// RAII span guard: closes the span (and settles self/child time) when
/// dropped, including during panic unwinding. Inert when observability
/// is off.
#[must_use = "a span measures the scope of its guard binding"]
pub struct SpanGuard {
    armed: bool,
}

/// Open a span. Prefer the [`crate::span!`] macro at call sites.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    span_inner(name, None)
}

/// Open a span carrying one static-keyed integer attribute.
#[inline]
pub fn span_attr(name: &'static str, key: &'static str, value: i64) -> SpanGuard {
    span_inner(name, Some((key, value)))
}

fn span_inner(name: &'static str, attr: Option<(&'static str, i64)>) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard { armed: false };
    }
    let armed = TRACER
        .try_with(|t| t.0.borrow_mut().open(name, attr))
        .is_ok();
    SpanGuard { armed }
}

impl SpanGuard {
    /// Closes an armed span now and returns the inclusive nanoseconds it
    /// recorded; `None` for an inert guard, which reads no clock.
    fn close_ns(&mut self) -> Option<u64> {
        if !std::mem::take(&mut self.armed) {
            return None;
        }
        TRACER.try_with(|t| t.0.borrow_mut().close()).ok().flatten()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let _ = self.close_ns();
    }
}

/// A phase span: a span that is also the phase's clock, on or off.
/// Close it with [`PhaseGuard::close`]; dropped unclosed, it closes its span
/// like any guard.
#[must_use = "a phase is timed until its guard is closed"]
pub struct PhaseGuard {
    span: SpanGuard,
    /// When the phase started, read only while the span is inert: an armed
    /// span reads its own clock.
    started: Option<Instant>,
}

/// Open a phase span (`epoch;solve`). Unlike [`span`], it reads the clock
/// whether or not observability is on, so a phase always knows its
/// duration; with observability off it records nothing.
#[inline]
pub fn phase(name: &'static str) -> PhaseGuard {
    let span = span(name);
    let started = (!span.armed).then(Instant::now);
    PhaseGuard { span, started }
}

impl PhaseGuard {
    /// Closes the phase now and returns the inclusive seconds it took: with
    /// observability on, exactly the nanoseconds its folded cell and journal
    /// line record; off, its own clock's reading.
    pub fn close(mut self) -> f64 {
        match self.started {
            Some(started) => started.elapsed().as_secs_f64(),
            None => self
                .span
                .close_ns()
                .map_or(0.0, |ns| Duration::from_nanos(ns).as_secs_f64()),
        }
    }
}

/// `span!("name")` / `span!("name", key = expr)` — open an RAII span.
/// Bind the guard (`let _span = span!(...)`); it closes on drop.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::trace::span($name)
    };
    ($name:expr, $key:ident = $value:expr) => {
        $crate::trace::span_attr($name, stringify!($key), ($value) as i64)
    };
}

/// A drained trace: folded aggregates merged deterministically across
/// every thread that recorded spans, plus the (timing-ordered) journal.
#[derive(Debug, Default, Clone)]
pub struct Trace {
    /// Folded path → aggregate cell. `BTreeMap` ⇒ export order is the
    /// path's lexicographic order, independent of thread interleaving
    /// or worker count.
    pub folded: BTreeMap<String, FoldedCell>,
    pub events: Vec<JournalEvent>,
    /// Journal events dropped to the per-thread cap (aggregates in
    /// `folded` still include them).
    pub dropped: u64,
}

/// Push the calling thread's completed spans into the global sink now.
///
/// The thread-local flush in `TracerCell`'s `Drop` is a safety net,
/// not a synchronisation point: scoped-thread joins can return before
/// the joined thread's TLS destructors have run, so a `drain` racing
/// that destructor would miss the dump. Worker threads whose spans must
/// be visible to an immediately following [`drain`] call this as the
/// last statement of their closure body, which *does* happen-before the
/// join.
pub fn flush_thread() {
    let _ = TRACER.try_with(|t| {
        if let Some(dump) = t.0.borrow_mut().take_dump() {
            sink_push(dump);
        }
    });
}

/// Flush the calling thread's buffers and drain every thread's dumps
/// from the global sink into one deterministic [`Trace`].
pub fn drain() -> Trace {
    flush_thread();
    let dumps = {
        let mut guard = sink().lock().unwrap_or_else(|e| e.into_inner());
        std::mem::take(&mut *guard)
    };
    let mut trace = Trace::default();
    for dump in dumps {
        for (path, cell) in dump.folded {
            trace.folded.entry(path).or_default().merge(&cell);
        }
        trace.events.extend(dump.events);
        trace.dropped += dump.dropped;
    }
    trace
        .events
        .sort_by(|a, b| (a.start_ns, &a.path, a.dur_ns).cmp(&(b.start_ns, &b.path, b.dur_ns)));
    trace
}

impl Trace {
    pub fn is_empty(&self) -> bool {
        self.folded.is_empty()
    }

    /// Inclusive nanoseconds recorded under an exact folded path.
    pub fn total_ns(&self, path: &str) -> u64 {
        self.folded.get(path).map_or(0, |c| c.total_ns)
    }

    /// `flamegraph.pl`-compatible folded stacks: one `path self_ns` line
    /// per folded path. Self time is the sample weight, so column widths
    /// sum to root inclusive time.
    pub fn write_folded<W: Write>(&self, out: &mut W) -> io::Result<()> {
        for (path, cell) in &self.folded {
            writeln!(out, "{} {}", path, cell.self_ns)?;
        }
        Ok(())
    }

    /// JSONL journal: a `meta` header line then one `span` line per
    /// journal event.
    pub fn write_journal<W: Write>(&self, out: &mut W) -> io::Result<()> {
        writeln!(
            out,
            "{{\"type\":\"meta\",\"version\":1,\"spans\":{},\"dropped\":{}}}",
            self.events.len(),
            self.dropped
        )?;
        for e in &self.events {
            let name = e.path.rsplit(';').next().unwrap_or(&e.path);
            write!(
                out,
                "{{\"type\":\"span\",\"path\":\"{}\",\"name\":\"{}\",\"depth\":{},\"start_ns\":{},\"dur_ns\":{}",
                e.path, name, e.depth, e.start_ns, e.dur_ns
            )?;
            if let Some((key, value)) = e.attr {
                write!(out, ",\"attr\":{{\"{key}\":{value}}}")?;
            }
            writeln!(out, "}}")?;
        }
        Ok(())
    }
}
