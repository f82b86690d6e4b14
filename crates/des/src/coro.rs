//! Stackful coroutine primitive for the pooled executor: heap-allocated
//! stacks plus a hand-rolled callee-saved context switch.
//!
//! A suspended task is nothing but a stack and one saved stack pointer;
//! everything else (callee-saved registers, return address) lives *on*
//! that stack, exactly where [`switch_stacks`] pushed it. Resuming is the
//! mirror image: load the saved stack pointer, pop the registers, `ret`.
//! This is the classic boost.context / libaco design, reduced to the one
//! architecture this workspace targets (x86-64 SysV); other architectures
//! fall back to the thread-per-process executor (see
//! [`supported`]).
//!
//! Safety model in one paragraph: a coroutine's entry function
//! ([`crate::pool::task_entry`]) wraps the user closure in
//! `catch_unwind`, so no unwind can ever cross the switch frames; the
//! final switch out of a finished task happens only after every value
//! with a destructor on that stack has been dropped, so abandoning the
//! stack leaks nothing; and the resume protocol (see [`crate::pool`])
//! guarantees a context is never entered by two threads at once. Stacks are uncommitted until touched (large allocations are
//! fresh anonymous mappings), so 10k+ mostly-idle tasks cost virtual
//! address space, not resident memory.

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::ptr::NonNull;

/// Whether this build has a coroutine context switch for the target
/// architecture. When `false`, the pooled executor silently degrades to
/// the threaded one.
pub(crate) const fn supported() -> bool {
    cfg!(target_arch = "x86_64")
}

/// A heap-allocated coroutine stack. The low end carries a canary word so
/// overflow (the stack grows *down*, towards the canary) is detected at
/// the next slice boundary instead of silently corrupting the heap.
pub(crate) struct Stack {
    base: NonNull<u8>,
    size: usize,
}

// The stack is only ever used by one thread at a time (the thread
// hosting the current slice); ownership moves with the TaskCell.
unsafe impl Send for Stack {}

impl Stack {
    const CANARY: u64 = 0xDEAD_BEEF_CA11_57AC;

    /// Minimum size we accept; smaller requests are rounded up. Below
    /// this even the entry trampoline plus a panic would overflow.
    pub(crate) const MIN_SIZE: usize = 16 * 1024;

    pub(crate) fn new(size: usize) -> Stack {
        let size = size.max(Self::MIN_SIZE) & !15usize;
        let layout = Layout::from_size_align(size, 16).expect("valid stack layout");
        // SAFETY: layout has non-zero size.
        let p = unsafe { alloc(layout) };
        let base = NonNull::new(p).unwrap_or_else(|| handle_alloc_error(layout));
        // SAFETY: the allocation is at least MIN_SIZE and 16-aligned.
        unsafe { base.as_ptr().cast::<u64>().write(Self::CANARY) };
        Stack { base, size }
    }

    /// True while the guard word at the overflow end is intact.
    pub(crate) fn canary_ok(&self) -> bool {
        // SAFETY: base points at our own live allocation.
        unsafe { self.base.as_ptr().cast::<u64>().read() == Self::CANARY }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        let layout = Layout::from_size_align(self.size, 16).expect("valid stack layout");
        // SAFETY: allocated with the identical layout in `new`.
        unsafe { dealloc(self.base.as_ptr(), layout) };
    }
}

#[cfg(target_arch = "x86_64")]
mod arch {
    use super::Stack;

    /// Swap stacks: push the SysV callee-saved registers onto the current
    /// stack, store the resulting `rsp` through `save`, load a new `rsp`
    /// from `load`, pop the registers the other context pushed (or that
    /// [`init_stack`] forged), and `ret` into it.
    ///
    /// # Safety
    /// `save` must be a valid slot to store the suspended context's stack
    /// pointer; `load` must hold a stack pointer previously produced by
    /// this function or by [`init_stack`], on a stack that is not
    /// currently executing on any thread.
    #[unsafe(naked)]
    pub(crate) unsafe extern "C" fn switch_stacks(save: *mut usize, load: *const usize) {
        core::arch::naked_asm!(
            "push rbp",
            "push rbx",
            "push r12",
            "push r13",
            "push r14",
            "push r15",
            "mov [rdi], rsp",
            "mov rsp, [rsi]",
            "pop r15",
            "pop r14",
            "pop r13",
            "pop r12",
            "pop rbx",
            "pop rbp",
            "ret",
        )
    }

    /// First landing pad of a fresh coroutine: [`init_stack`] plants this
    /// as the `ret` target with the task pointer in `r12`. Realigns the
    /// stack for the SysV call and enters the (never-returning) Rust
    /// entry.
    #[unsafe(naked)]
    unsafe extern "C" fn trampoline() {
        core::arch::naked_asm!(
            "sub rsp, 8",
            "mov rdi, r12",
            "call {entry}",
            "ud2",
            entry = sym crate::pool::task_entry,
        )
    }

    /// Forge an initial context on `stack` so that the first
    /// [`switch_stacks`] into it "returns" into [`trampoline`] with
    /// `task` in `r12`. Returns the stack-pointer value to switch to.
    ///
    /// # Safety
    /// `stack` must outlive every switch into the returned context;
    /// `task` must stay valid for the coroutine's whole life.
    pub(crate) unsafe fn init_stack(stack: &Stack, task: *const ()) -> usize {
        let top = (stack.base.as_ptr() as usize + stack.size) & !15usize;
        // Eight slots below the (16-aligned) top, mirroring the pop
        // sequence of `switch_stacks` plus its `ret`:
        //   sp+0  r15      sp+24 r12 (task)   sp+48 ret -> trampoline
        //   sp+8  r14      sp+32 rbx          sp+56 pad (entry alignment)
        //   sp+16 r13      sp+40 rbp
        let sp = top - 8 * 8;
        let s = sp as *mut usize;
        // SAFETY: the eight slots lie inside the allocation (size >=
        // MIN_SIZE >> 64 bytes) and are 16-aligned by construction.
        unsafe {
            s.add(0).write(0);
            s.add(1).write(0);
            s.add(2).write(0);
            s.add(3).write(task as usize);
            s.add(4).write(0);
            s.add(5).write(0);
            s.add(6).write(trampoline as *const () as usize);
            s.add(7).write(0);
        }
        sp
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) use arch::{init_stack, switch_stacks};

// On unsupported architectures the pooled executor is never constructed
// (see `exec::resolve_kind`), but the symbols must exist to compile.
#[cfg(not(target_arch = "x86_64"))]
mod arch_stub {
    use super::Stack;
    pub(crate) unsafe extern "C" fn switch_stacks(_save: *mut usize, _load: *const usize) {
        unreachable!("coroutine switch on unsupported architecture")
    }
    pub(crate) unsafe fn init_stack(_stack: &Stack, _task: *const ()) -> usize {
        unreachable!("coroutine init on unsupported architecture")
    }
}

#[cfg(not(target_arch = "x86_64"))]
pub(crate) use arch_stub::{init_stack, switch_stacks};
