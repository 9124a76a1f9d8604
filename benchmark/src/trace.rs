//! The benchmark's in-memory span recorder. Spans are taken from outside the
//! crates under measurement, around calls into their public functions; they
//! stay in memory until the run ends and are then written out as JSON.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval. Spans of one operation share `op`; `parent` is the
/// span that caused this one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        op: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            op,
        });
        (self.spans.len() - 1) as u32
    }

    /// Records `f` as a span and hands back its result with the span's id.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u32) {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        (out, self.push(name, parent, op, start, end))
    }

    /// Reserves a span whose end is not known yet (a parent recorded before
    /// its children); close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<u32>, op: u64) -> u32 {
        let now = self.now_ns();
        self.push(name, parent, op, now, now)
    }

    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn get(&self, id: u32) -> &Span {
        &self.spans[id as usize]
    }

    /// Appends another recorder's spans (a client thread's), re-basing their
    /// parent links.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len() as u32;
        let shift = other
            .origin
            .saturating_duration_since(self.origin)
            .as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            start_ns: s.start_ns + shift,
            end_ns: s.end_ns + shift,
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }

    /// Self time of every span: its duration minus the part of its interval
    /// that its child spans cover (overlapping children are counted once;
    /// a child reaching outside its parent is clipped).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p as usize];
                let lo = s.start_ns.max(parent.start_ns);
                let hi = s.end_ns.min(parent.end_ns);
                if hi > lo {
                    children[p as usize].push((lo, hi));
                }
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start_ns;
                for &(lo, hi) in kids.iter() {
                    let lo = lo.max(reach);
                    if hi > lo {
                        covered += hi - lo;
                        reach = hi;
                    }
                }
                s.duration_ns() - covered
            })
            .collect()
    }

    /// Total self time per span name, in nanoseconds.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times_ns()) {
            *out.entry(s.name).or_insert(0) += own;
        }
        out
    }

    /// Writes the spans as one JSON array. A failure to write a trace file is
    /// reported to the caller, never swallowed.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}{comma}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_the_union_of_clipped_children() {
        let mut r = Recorder::new();
        let root = r.push("op", None, 1, 100, 200);
        // Two overlapping children cover [110, 150]; one reaches past the end
        // of the parent and is clipped to [190, 200].
        let a = r.push("a", Some(root), 1, 110, 140);
        r.push("b", Some(root), 1, 130, 150);
        r.push("c", Some(root), 1, 190, 230);
        // A grandchild takes time out of `a`, not out of the root twice.
        r.push("a.inner", Some(a), 1, 115, 125);
        // A span with another op id and no parent is untouched.
        r.push("other", None, 2, 0, 7);
        let own = r.self_times_ns();
        assert_eq!(own[root as usize], 100 - 40 - 10);
        assert_eq!(own[a as usize], 30 - 10);
        assert_eq!(own[5], 7);
        let by_name = r.self_time_by_name();
        assert_eq!(by_name["op"], 50);
        assert_eq!(by_name["a.inner"], 10);
        // Self times of a tree sum to the root's duration when no child
        // leaves its parent: root 50 + a 20 + inner 10 + b 10 (its part not
        // shared with a) would double count the overlap, so check the simple
        // nested case instead.
        let mut r = Recorder::new();
        let root = r.push("op", None, 1, 0, 100);
        let k = r.push("k", Some(root), 1, 10, 60);
        r.push("k2", Some(k), 1, 20, 30);
        assert_eq!(r.self_times_ns().iter().sum::<u64>(), 100);
    }

    #[test]
    fn absorb_rebases_parent_links() {
        let mut main = Recorder::new();
        main.push("x", None, 0, 0, 1);
        let mut side = Recorder::new();
        let p = side.push("op", None, 9, 5, 10);
        side.push("child", Some(p), 9, 6, 7);
        main.absorb(side);
        assert_eq!(main.spans().len(), 3);
        assert_eq!(main.get(2).parent, Some(1));
        assert_eq!(main.get(2).name, "child");
    }
}
