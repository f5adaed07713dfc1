//! The partition of a joint state's feasible vehicles into the classes the
//! Q-network cannot tell apart, and the receptive field a pass is recorded
//! on.

use super::ForwardStats;
use crate::state::StateSnapshot;

/// The receptive field of a pass's wanted rows, and the scratch its row
/// gathers are written in.
#[derive(Debug, Default)]
pub(super) struct Field {
    /// `need[l]`: the rows whose level-`l` representation the wanted rows
    /// read, ascending — `need[0]` is embedded, the last set is wanted.
    pub(super) need: Vec<Vec<usize>>,
    pub(super) picks: Vec<usize>,
}

impl Field {
    /// Derives `need` for `want` (ascending; `None` wants all `rows` rows)
    /// under `levels` attention levels: a level reads, of the one below,
    /// its own rows and the rows their lists name.
    pub(super) fn derive<J: IntoIterator<Item = usize>>(
        &mut self,
        levels: usize,
        rows: usize,
        want: Option<&[usize]>,
        lists: impl Fn(usize) -> J,
    ) {
        self.need.resize_with(levels + 1, Vec::new);
        let wanted = &mut self.need[levels];
        wanted.clear();
        match want {
            Some(want) => {
                assert!(want.is_sorted_by(|a, b| a < b), "wanted rows ascend");
                wanted.extend_from_slice(want);
            }
            None => wanted.extend(0..rows),
        }
        for level in (0..levels).rev() {
            let (below, above) = self.need.split_at_mut(level + 1);
            let (below, above) = (&mut below[level], &above[0]);
            below.clone_from(above);
            // Every row reads every row below it at most.
            if above.len() < rows {
                below.extend(above.iter().flat_map(|&row| lists(row)));
                below.sort_unstable();
                below.dedup();
            }
        }
    }
}

/// Marks an unused slot of [`Partition::slots`].
const EMPTY: usize = usize::MAX;

/// One step of the word-at-a-time hash the grouping table uses. Only its
/// speed matters: equal keys are told by comparing them, and classes are
/// numbered by first member, so no result depends on where a key lands.
#[inline]
fn mix(hash: u64, word: u64) -> u64 {
    (hash ^ word)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(26)
}

/// The partition of a joint state's feasible vehicles into classes with
/// bit-identical Q-values, and the scratch it is computed in (every
/// buffer is reused from call to call).
///
/// Two vehicles share a class when the network cannot tell them apart:
/// their feature rows are equal bit for bit and, attention level by
/// level, their canonical neighbour lists name vehicles of equal classes
/// in equal positions. Row-wise layers map equal rows to equal rows and
/// the attention op sums a row's terms in list order, so by induction
/// over the levels a class's members hold equal representations at every
/// depth — the key leaves out nothing the forward pass reads.
/// Infeasible vehicles are in no class: nobody attends to them and their
/// Q-value is never read.
#[derive(Debug, Default)]
pub(crate) struct Partition {
    /// Canonical neighbour lists of all `K` vehicles, flat: vehicle `v`
    /// attends to `flat[bounds[v]..bounds[v + 1]]` — itself and its
    /// feasible neighbours, ascending, each once.
    pub(super) bounds: Vec<usize>,
    pub(super) flat: Vec<usize>,
    /// Class of each vehicle ([`EMPTY`] for the infeasible), classes
    /// numbered by their lowest member.
    pub(super) class: Vec<usize>,
    /// The previous round's classes, which a refinement round reads.
    prev: Vec<usize>,
    /// Lowest member of each class.
    pub(super) reps: Vec<usize>,
    /// Open-addressing table of the classes found so far in a round.
    slots: Vec<usize>,
    /// The receptive field of the last pass recorded through this scratch.
    pub(super) field: Field,
    pub(super) stats: ForwardStats,
}

impl Partition {
    /// Totals over every [`QNetwork::forward_classes`](super::QNetwork::forward_classes) this scratch served.
    pub(crate) fn stats(&self) -> ForwardStats {
        self.stats
    }

    /// Rows the last pass through this scratch embedded.
    pub(crate) fn field_rows(&self) -> usize {
        self.field.need[0].len()
    }

    /// Builds every vehicle's canonical list: itself and the feasible
    /// vehicles among its `snap.neighbors`, ascending by vehicle index,
    /// de-duplicated — the form in which a list is a function of the set
    /// it names.
    pub(super) fn canonical_lists(&mut self, snap: &StateSnapshot) {
        let k = snap.num_vehicles();
        self.bounds.clear();
        self.flat.clear();
        self.bounds.reserve(k + 1);
        self.flat
            .reserve(k + snap.neighbors.iter().map(<[usize]>::len).sum::<usize>());
        for (v, neighbors) in snap.neighbors.iter().enumerate() {
            let start = self.flat.len();
            self.bounds.push(start);
            self.flat.push(v);
            let feasible = neighbors.iter().copied().filter(|&n| snap.feasible[n]);
            self.flat.extend(feasible);
            self.flat[start..].sort_unstable();
            let mut end = start + 1;
            for at in start + 1..self.flat.len() {
                if self.flat[at] != self.flat[end - 1] {
                    self.flat[end] = self.flat[at];
                    end += 1;
                }
            }
            self.flat.truncate(end);
        }
        self.bounds.push(self.flat.len());
    }

    /// Round zero: feasible vehicles with equal feature bits share a
    /// class (`0.0` and `-0.0`, or two NaNs, are different bits).
    pub(super) fn group_by_features(&mut self, snap: &StateSnapshot) {
        let k = snap.num_vehicles();
        self.class.clear();
        self.class.resize(k, EMPTY);
        self.slots.clear();
        self.slots.resize((2 * k).next_power_of_two(), EMPTY);
        let bits = |v: usize| snap.features.row(v).iter().map(|x| x.to_bits());
        group(
            &snap.feasible,
            &mut self.slots,
            &mut self.class,
            &mut self.reps,
            |v| bits(v).fold(0, mix),
            |a, b| bits(a).eq(bits(b)),
        );
    }

    /// One refinement round: two vehicles stay together when they were
    /// together and their lists name equal classes in equal positions.
    /// Returns whether any class split; once none does, none ever will.
    pub(super) fn refine(&mut self, snap: &StateSnapshot) -> bool {
        let before = self.reps.len();
        std::mem::swap(&mut self.class, &mut self.prev);
        self.class.clear();
        self.class.resize(self.prev.len(), EMPTY);
        let (bounds, flat, prev) = (&self.bounds, &self.flat, &self.prev);
        let key = |v: usize| {
            let list = list_of(bounds, flat, v).iter();
            std::iter::once(prev[v]).chain(list.map(|&n| prev[n]))
        };
        group(
            &snap.feasible,
            &mut self.slots,
            &mut self.class,
            &mut self.reps,
            |v| key(v).fold(0, |hash, class| mix(hash, class as u64)),
            |a, b| key(a).eq(key(b)),
        );
        self.reps.len() != before
    }
}

/// Vehicle `v`'s canonical neighbour list in [`Partition`]'s flat layout.
pub(super) fn list_of<'a>(bounds: &[usize], flat: &'a [usize], v: usize) -> &'a [usize] {
    &flat[bounds[v]..bounds[v + 1]]
}

/// Groups the feasible vehicles by a key given as its hash and its
/// equality: `class[v]` becomes the number of `v`'s group and `reps` the
/// groups' lowest members, groups numbered in order of first appearance —
/// a function of the keys alone.
fn group(
    feasible: &[bool],
    slots: &mut [usize],
    class: &mut [usize],
    reps: &mut Vec<usize>,
    hash: impl Fn(usize) -> u64,
    same: impl Fn(usize, usize) -> bool,
) {
    let mask = slots.len() - 1;
    slots.fill(EMPTY);
    reps.clear();
    for v in (0..feasible.len()).filter(|&v| feasible[v]) {
        let mut at = hash(v) as usize & mask;
        class[v] = loop {
            match slots[at] {
                EMPTY => {
                    slots[at] = reps.len();
                    reps.push(v);
                    break slots[at];
                }
                found if same(reps[found], v) => break found,
                _ => at = (at + 1) & mask,
            }
        };
    }
}
