//! Warp-program representation for the engine: owned op vectors for
//! ordinary kernels, shared (reference-counted) segments for kernels
//! that replay cached programs.
//!
//! The clustering transforms launch the *same* original-CTA programs
//! over and over — once per variant, and (for agents) concatenated many
//! tasks deep. [`WarpProgram::Segmented`] lets a kernel hand the engine
//! a sequence of `Arc<[Op]>` slices instead of a freshly generated
//! `Vec<Op>`, so the variant matrix materializes each original program
//! once and replays it everywhere. The engine only ever walks programs
//! strictly forward, one op per issue, so segment traversal is a cursor
//! (`(segment, offset)` advanced in step with the warp's `pc`), not
//! random access.

use crate::kernel::Op;
use std::sync::Arc;

/// Backing storage of one program segment.
#[derive(Debug, Clone)]
enum SegOps {
    /// A slice of a shared, immutable program (zero-copy replay).
    Shared(Arc<[Op]>),
    /// Ops owned by this program alone (prologues, inserted prefetches).
    Inline(Box<[Op]>),
}

/// A contiguous run of ops: `ops[start..end]`.
#[derive(Debug, Clone)]
pub(crate) struct Segment {
    ops: SegOps,
    start: u32,
    end: u32,
}

impl Segment {
    #[inline]
    pub(crate) fn len(&self) -> u32 {
        self.end - self.start
    }

    #[inline]
    fn op(&self, off: u32) -> &Op {
        let idx = (self.start + off) as usize;
        match &self.ops {
            SegOps::Shared(ops) => &ops[idx],
            SegOps::Inline(ops) => &ops[idx],
        }
    }
}

/// Position of the next op in a [`WarpProgram`], advanced alongside the
/// warp's `pc`. For owned programs only `off` is meaningful.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Cursor {
    pub seg: u32,
    pub off: u32,
}

/// One warp's instruction stream, as the engine executes it.
#[derive(Debug)]
pub(crate) enum WarpProgram {
    /// A plain generated program (the pre-cache path; buffer recycled
    /// through the runner's program pool on retirement).
    Owned(Vec<Op>),
    /// A sequence of segments over shared and inline storage. Segments
    /// are never empty (the builder drops empty runs).
    Segmented { parts: Box<[Segment]>, len: u32 },
}

impl WarpProgram {
    #[inline]
    pub(crate) fn len(&self) -> usize {
        match self {
            WarpProgram::Owned(v) => v.len(),
            WarpProgram::Segmented { len, .. } => *len as usize,
        }
    }

    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The op under `cur`. Callers must not read past the end
    /// (`pc < len()` is the engine's guard, as it was for `Vec` indexing).
    #[inline]
    pub(crate) fn op_at(&self, cur: Cursor) -> &Op {
        match self {
            WarpProgram::Owned(v) => &v[cur.off as usize],
            WarpProgram::Segmented { parts, .. } => parts[cur.seg as usize].op(cur.off),
        }
    }

    /// The cursor one op past `cur`.
    #[inline]
    pub(crate) fn advance(&self, cur: Cursor) -> Cursor {
        match self {
            WarpProgram::Owned(_) => Cursor {
                seg: 0,
                off: cur.off + 1,
            },
            WarpProgram::Segmented { parts, .. } => {
                let mut seg = cur.seg;
                let mut off = cur.off + 1;
                while (seg as usize) < parts.len() && off >= parts[seg as usize].len() {
                    seg += 1;
                    off = 0;
                }
                Cursor { seg, off }
            }
        }
    }

    /// Recycles the owned buffer (if any) into `pool` for the next
    /// dispatch; shared segments just drop their refcounts.
    pub(crate) fn recycle(self, pool: &mut Vec<Vec<Op>>) {
        if let WarpProgram::Owned(mut v) = self {
            v.clear();
            pool.push(v);
        }
    }
}

/// Builder handed to [`crate::KernelSpec::warp_program_build`]: kernels
/// append owned ops and/or shared program slices in execution order.
///
/// Kernels that push no shared segment build one inline buffer, and the
/// result is exactly the plain `Vec<Op>` program.
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    pending: Vec<Op>,
    parts: Vec<Segment>,
    len: u32,
}

impl ProgramBuilder {
    /// A builder whose inline buffer reuses `buf`'s allocation.
    pub(crate) fn with_buffer(mut buf: Vec<Op>) -> Self {
        buf.clear();
        ProgramBuilder {
            pending: buf,
            parts: Vec::new(),
            len: 0,
        }
    }

    /// Appends one owned op.
    #[inline]
    pub fn push(&mut self, op: Op) {
        self.pending.push(op);
    }

    /// Appends a whole shared program.
    pub fn push_shared(&mut self, ops: &Arc<[Op]>) {
        self.push_shared_range(ops, 0, ops.len());
    }

    /// Appends `ops[start..end]` of a shared program. Empty ranges are
    /// dropped (segments are never empty).
    pub fn push_shared_range(&mut self, ops: &Arc<[Op]>, start: usize, end: usize) {
        debug_assert!(start <= end && end <= ops.len());
        if start >= end {
            return;
        }
        self.flush_pending();
        self.len += (end - start) as u32;
        self.parts.push(Segment {
            ops: SegOps::Shared(Arc::clone(ops)),
            start: start as u32,
            end: end as u32,
        });
    }

    /// The inline op buffer. Only meaningful while no shared segment has
    /// been pushed; the default [`crate::KernelSpec::warp_program_build`]
    /// stores the whole generated program here.
    pub(crate) fn inline_ops(&mut self) -> &mut Vec<Op> {
        debug_assert!(
            self.parts.is_empty(),
            "inline_ops holds whole programs only"
        );
        &mut self.pending
    }

    fn flush_pending(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let end = self.pending.len() as u32;
        self.len += end;
        let inline: Box<[Op]> = self.pending.drain(..).collect();
        self.parts.push(Segment {
            ops: SegOps::Inline(inline),
            start: 0,
            end,
        });
    }

    /// Materializes the built program into a flat op vector, in execution
    /// order; an all-inline program returns its buffer uncopied. The
    /// engine consumes the segmented form directly and never flattens.
    pub fn into_ops(self) -> Vec<Op> {
        if self.parts.is_empty() {
            return self.pending;
        }
        let (prog, _) = self.finish();
        let mut out = Vec::with_capacity(prog.len());
        let mut cur = Cursor::default();
        for _ in 0..prog.len() {
            out.push(prog.op_at(cur).clone());
            cur = prog.advance(cur);
        }
        out
    }

    /// Finalizes the program. Returns the program plus the leftover
    /// inline buffer (for the runner's pool) when the program does not
    /// own it.
    pub(crate) fn finish(mut self) -> (WarpProgram, Option<Vec<Op>>) {
        if self.parts.is_empty() {
            return (WarpProgram::Owned(self.pending), None);
        }
        self.flush_pending();
        (
            WarpProgram::Segmented {
                parts: self.parts.into_boxed_slice(),
                len: self.len,
            },
            Some(self.pending),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::MemAccess;

    fn op(n: u64) -> Op {
        Op::Load(MemAccess::scalar(0, n, 4))
    }

    fn materialize(p: &WarpProgram) -> Vec<Op> {
        let mut out = Vec::new();
        let mut cur = Cursor::default();
        for _ in 0..p.len() {
            out.push(p.op_at(cur).clone());
            cur = p.advance(cur);
        }
        out
    }

    #[test]
    fn owned_program_round_trips() {
        let b = ProgramBuilder::with_buffer(vec![op(9)]);
        // with_buffer clears the recycled allocation.
        let (prog, spare) = {
            let mut b = b;
            b.push(op(1));
            b.push(op(2));
            b.finish()
        };
        assert!(spare.is_none());
        assert_eq!(prog.len(), 2);
        assert_eq!(materialize(&prog), vec![op(1), op(2)]);
        let mut pool = Vec::new();
        prog.recycle(&mut pool);
        assert_eq!(pool.len(), 1);
        assert!(pool[0].is_empty());
    }

    #[test]
    fn segments_interleave_inline_and_shared_in_order() {
        let shared: Arc<[Op]> = vec![op(10), op(11), op(12)].into();
        let mut b = ProgramBuilder::default();
        b.push(op(1));
        b.push_shared_range(&shared, 0, 2);
        b.push(op(2));
        b.push(op(3));
        b.push_shared_range(&shared, 2, 3);
        b.push_shared_range(&shared, 1, 1); // empty: dropped
        let (prog, spare) = b.finish();
        assert!(spare.is_some());
        assert_eq!(prog.len(), 6);
        assert_eq!(
            materialize(&prog),
            vec![op(1), op(10), op(11), op(2), op(3), op(12)]
        );
    }

    #[test]
    fn empty_builder_yields_empty_owned() {
        let (prog, spare) = ProgramBuilder::default().finish();
        assert!(prog.is_empty());
        assert!(spare.is_none());
        let mut pool = Vec::new();
        prog.recycle(&mut pool);
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn whole_shared_program_is_zero_copy() {
        let shared: Arc<[Op]> = vec![op(5), op(6)].into();
        let mut b = ProgramBuilder::default();
        b.push_shared(&shared);
        let (prog, _) = b.finish();
        assert_eq!(materialize(&prog), vec![op(5), op(6)]);
        assert_eq!(Arc::strong_count(&shared), 2);
        drop(prog);
        assert_eq!(Arc::strong_count(&shared), 1);
    }
}
