//! Pluggable worklist strategies for the SLG derivation forest.
//!
//! The machine's control loop is a worklist of tasks: *expansions* (resolve
//! a derivation node's selected goal) and *answer returns* (resume a
//! consumer with one table answer). Which task runs next is the engine's
//! scheduling strategy — the knob the paper's Section 6.2 discusses and the
//! subject of XSB's batched-vs-local scheduling work (Freire, Swift &
//! Warren; see DESIGN.md, "Arenas, sessions, and scheduling strategies").
//! PR 4 factors the discipline out of the machine into the [`Scheduler`]
//! trait: the machine tags each task with a [`TaskClass`] and otherwise
//! does not care how the strategy orders them, so strategies are pluggable
//! via [`crate::EngineOptions::scheduling`] and separately testable.
//!
//! Completeness of SLG resolution does not depend on task order — every
//! strategy must merely be *exhaustive* (eventually return each pushed
//! task), and then all strategies compute the same tables. The differential
//! property test in `tests/prop_table_diff.rs` checks exactly this.

use crate::options::Scheduling;
use std::collections::VecDeque;

/// Coarse classification of a worklist task, the only view of the payload
/// a strategy gets (the task type itself is crate-private).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TaskClass {
    /// Resolve a derivation node's selected goal.
    Expand,
    /// Resume a consumer with one table answer.
    Return,
}

/// A worklist discipline: the machine pushes tasks tagged with their
/// [`TaskClass`] and pops whatever the strategy selects next; evaluation
/// terminates when [`Scheduler::pop`] returns `None`.
pub trait Scheduler<T> {
    /// The strategy's name, reported in evaluation metadata
    /// (see [`crate::Evaluation::scheduler`]).
    fn name(&self) -> &'static str;

    /// Accepts one task.
    fn push(&mut self, class: TaskClass, task: T);

    /// Hands out the next task, or `None` when the worklist is empty.
    fn pop(&mut self) -> Option<T>;

    /// Number of pending tasks.
    fn len(&self) -> usize;

    /// Number of pending tasks of one class — the per-class worklist depth
    /// the counter time-series samples (see `tablog_trace::CounterSample`).
    /// Must be O(1): it is polled at every dispatch boundary when counter
    /// recording is on.
    fn class_len(&self, class: TaskClass) -> usize;

    /// `true` when no tasks are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// LIFO worklist: the most recently generated task runs next, regardless of
/// class — depth-first expansion, akin to XSB's local scheduling. This is
/// the default and reproduces the seed engine's task order exactly (the
/// golden Figure 1 trace is recorded under it).
#[derive(Debug)]
pub struct DepthFirst<T> {
    // Tasks carry their class so per-class counts stay exact without a
    // second queue; order is the class-blind LIFO the seed engine used.
    tasks: VecDeque<(TaskClass, T)>,
    expands: usize,
    returns: usize,
}

impl<T> Default for DepthFirst<T> {
    fn default() -> Self {
        DepthFirst {
            tasks: VecDeque::new(),
            expands: 0,
            returns: 0,
        }
    }
}

impl<T> Scheduler<T> for DepthFirst<T> {
    fn name(&self) -> &'static str {
        "depth_first"
    }

    fn push(&mut self, class: TaskClass, task: T) {
        match class {
            TaskClass::Expand => self.expands += 1,
            TaskClass::Return => self.returns += 1,
        }
        self.tasks.push_back((class, task));
    }

    fn pop(&mut self) -> Option<T> {
        let (class, task) = self.tasks.pop_back()?;
        match class {
            TaskClass::Expand => self.expands -= 1,
            TaskClass::Return => self.returns -= 1,
        }
        Some(task)
    }

    fn len(&self) -> usize {
        self.tasks.len()
    }

    fn class_len(&self, class: TaskClass) -> usize {
        match class {
            TaskClass::Expand => self.expands,
            TaskClass::Return => self.returns,
        }
    }
}

/// FIFO worklist: tasks run in generation order — breadth-first expansion
/// and answer return.
#[derive(Debug)]
pub struct BreadthFirst<T> {
    tasks: VecDeque<(TaskClass, T)>,
    expands: usize,
    returns: usize,
}

impl<T> Default for BreadthFirst<T> {
    fn default() -> Self {
        BreadthFirst {
            tasks: VecDeque::new(),
            expands: 0,
            returns: 0,
        }
    }
}

impl<T> Scheduler<T> for BreadthFirst<T> {
    fn name(&self) -> &'static str {
        "breadth_first"
    }

    fn push(&mut self, class: TaskClass, task: T) {
        match class {
            TaskClass::Expand => self.expands += 1,
            TaskClass::Return => self.returns += 1,
        }
        self.tasks.push_back((class, task));
    }

    fn pop(&mut self) -> Option<T> {
        let (class, task) = self.tasks.pop_front()?;
        match class {
            TaskClass::Expand => self.expands -= 1,
            TaskClass::Return => self.returns -= 1,
        }
        Some(task)
    }

    fn len(&self) -> usize {
        self.tasks.len()
    }

    fn class_len(&self, class: TaskClass) -> usize {
        match class {
            TaskClass::Expand => self.expands,
            TaskClass::Return => self.returns,
        }
    }
}

/// Batched answer return, after XSB's batched scheduling: expansions run
/// eagerly (LIFO) until none remain, and only then do pending answer
/// returns flow to consumers, oldest first. Each generator thus produces
/// its full batch of program-clause work before any consumer resumes,
/// trading the prompt first answer of [`DepthFirst`] for fewer
/// generator/consumer switches.
#[derive(Debug)]
pub struct Batched<T> {
    expands: Vec<T>,
    returns: VecDeque<T>,
}

impl<T> Default for Batched<T> {
    fn default() -> Self {
        Batched {
            expands: Vec::new(),
            returns: VecDeque::new(),
        }
    }
}

impl<T> Scheduler<T> for Batched<T> {
    fn name(&self) -> &'static str {
        "batched"
    }

    fn push(&mut self, class: TaskClass, task: T) {
        match class {
            TaskClass::Expand => self.expands.push(task),
            TaskClass::Return => self.returns.push_back(task),
        }
    }

    fn pop(&mut self) -> Option<T> {
        self.expands.pop().or_else(|| self.returns.pop_front())
    }

    fn len(&self) -> usize {
        self.expands.len() + self.returns.len()
    }

    fn class_len(&self, class: TaskClass) -> usize {
        match class {
            TaskClass::Expand => self.expands.len(),
            TaskClass::Return => self.returns.len(),
        }
    }
}

/// Instantiates the strategy selected by [`Scheduling`].
pub fn make_scheduler<T: 'static>(s: Scheduling) -> Box<dyn Scheduler<T>> {
    match s {
        Scheduling::DepthFirst => Box::new(DepthFirst::default()),
        Scheduling::BreadthFirst => Box::new(BreadthFirst::default()),
        Scheduling::Batched => Box::new(Batched::default()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(s: &mut dyn Scheduler<u32>) -> Vec<u32> {
        let mut out = Vec::new();
        while let Some(t) = s.pop() {
            out.push(t);
        }
        out
    }

    #[test]
    fn depth_first_is_lifo_across_classes() {
        let mut s = DepthFirst::default();
        s.push(TaskClass::Expand, 1);
        s.push(TaskClass::Return, 2);
        s.push(TaskClass::Expand, 3);
        assert_eq!(s.len(), 3);
        assert_eq!(drain(&mut s), vec![3, 2, 1]);
        assert!(s.is_empty());
    }

    #[test]
    fn breadth_first_is_fifo_across_classes() {
        let mut s = BreadthFirst::default();
        s.push(TaskClass::Expand, 1);
        s.push(TaskClass::Return, 2);
        s.push(TaskClass::Expand, 3);
        assert_eq!(drain(&mut s), vec![1, 2, 3]);
    }

    #[test]
    fn batched_drains_expansions_before_returns() {
        let mut s = Batched::default();
        s.push(TaskClass::Return, 10);
        s.push(TaskClass::Expand, 1);
        s.push(TaskClass::Expand, 2);
        s.push(TaskClass::Return, 11);
        // Expansions LIFO first, then returns FIFO.
        assert_eq!(s.pop(), Some(2));
        assert_eq!(s.pop(), Some(1));
        // A fresh expansion pushed mid-batch still preempts the returns.
        s.push(TaskClass::Expand, 3);
        assert_eq!(s.pop(), Some(3));
        assert_eq!(drain(&mut s), vec![10, 11]);
    }

    #[test]
    fn class_len_tracks_pushes_and_pops_per_class() {
        for opt in [
            Scheduling::DepthFirst,
            Scheduling::BreadthFirst,
            Scheduling::Batched,
        ] {
            let mut s: Box<dyn Scheduler<u32>> = make_scheduler(opt);
            s.push(TaskClass::Expand, 1);
            s.push(TaskClass::Return, 2);
            s.push(TaskClass::Expand, 3);
            assert_eq!(s.class_len(TaskClass::Expand), 2, "{}", s.name());
            assert_eq!(s.class_len(TaskClass::Return), 1, "{}", s.name());
            assert_eq!(
                s.class_len(TaskClass::Expand) + s.class_len(TaskClass::Return),
                s.len()
            );
            while s.pop().is_some() {}
            assert_eq!(s.class_len(TaskClass::Expand), 0, "{}", s.name());
            assert_eq!(s.class_len(TaskClass::Return), 0, "{}", s.name());
        }
    }

    #[test]
    fn factory_matches_option_names() {
        for (opt, name) in [
            (Scheduling::DepthFirst, "depth_first"),
            (Scheduling::BreadthFirst, "breadth_first"),
            (Scheduling::Batched, "batched"),
        ] {
            let s: Box<dyn Scheduler<u32>> = make_scheduler(opt);
            assert_eq!(s.name(), name);
        }
    }
}
