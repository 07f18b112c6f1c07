//! Timed Petri net construction (Section 3 of the paper).
//!
//! The TPN of a replicated mapping is a *timed event graph*: every place
//! has exactly one input and one output transition, which holds by
//! construction here (places are stored as `(src, dst, tokens)` triples).
//!
//! Layout: `m = lcm(R_1, …, R_N)` rows × `2N − 1` columns.
//! Column `2i` holds the computation of stage `i` (0-based) and column
//! `2i + 1` the communication of file `i` from stage `i` to stage `i + 1`.
//! Row `j` describes the path taken by data sets `j, j + m, j + 2m, …`;
//! stage `i` of row `j` runs on team slot `j mod R_i`.

use crate::shape::{ExecModel, MappingShape, Resource, ResourceTable};
use repstream_maxplus::TokenGraph;

/// Transition index within a [`Tpn`].
pub type TransId = usize;
/// Place index within a [`Tpn`].
pub type PlaceId = usize;

/// What a transition models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransKind {
    /// Computation of `stage` for the data sets of `row`, on team slot
    /// `slot = row mod R_stage`.
    Compute {
        /// Stage index.
        stage: usize,
        /// Row (path) index.
        row: usize,
    },
    /// Transmission of file `file` for the data sets of `row`, from slot
    /// `row mod R_file` to slot `row mod R_{file+1}`.
    Comm {
        /// File index.
        file: usize,
        /// Row (path) index.
        row: usize,
    },
}

/// One transition of the TPN.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transition {
    /// Its semantic label.
    pub kind: TransKind,
    /// The hardware resource whose law times this transition.
    pub resource: Resource,
    /// Column index in the row × column layout.
    pub col: usize,
    /// Row index.
    pub row: usize,
}

/// Why a place exists (used by structural tests and debugging output).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlaceKind {
    /// Dependence along a row: `T_k → T_{k+1}` (rule 1 of §3.2).
    RowForward,
    /// Round-robin serialization of a processor's computations (rule 2).
    RoundRobinCompute,
    /// One-port constraint on a processor's sends (rule 3, Overlap).
    OnePortOut,
    /// One-port constraint on a processor's receives (rule 4, Overlap).
    OnePortIn,
    /// Receive→compute→send sequence serialization (Strict, §3.3).
    StrictSequence,
}

/// One place of the TPN (event-graph property: single input `src`, single
/// output `dst`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Place {
    /// The transition feeding the place.
    pub src: TransId,
    /// The transition consuming from the place.
    pub dst: TransId,
    /// Initial marking (0 or 1 in the paper's construction).
    pub tokens: u32,
    /// Structural role.
    pub kind: PlaceKind,
}

/// A structural automorphism of a [`Tpn`]: a pair of permutations (of the
/// transitions and of the places) that preserves every place's endpoints
/// and kind.  Initial markings are **not** required to be invariant — the
/// consumers (the marking-graph symmetry reduction of `repstream-markov`)
/// only need the permuted initial marking to be *reachable*, which they
/// verify themselves.
///
/// The automorphism is purely structural: whether it also preserves the
/// *timing* depends on the per-resource law table, so rate invariance is
/// checked by the consumer against its actual rates (it holds exactly in
/// the homogeneous exponential setting of Theorem 2, where each stage's
/// team and its links share one rate).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TpnAutomorphism {
    /// Image of every transition.
    pub trans_perm: Vec<TransId>,
    /// Image of every place.
    pub place_perm: Vec<PlaceId>,
}

/// Canonical **structure key** of a TPN: the replication vector (team
/// sizes) plus the execution model.
///
/// Two TPNs with equal signatures are structurally identical — same
/// transitions in the same order, same places with the same endpoints,
/// kinds and initial tokens (the construction in [`Tpn::build`] is a pure
/// function of the shape and model).  Everything *rate- or time-dependent*
/// lives outside the TPN in `ResourceTable`s, so the signature is exactly
/// the right key for caches of derived structures (marking graphs, orbit
/// partitions, token-graph skeletons): candidates that differ only in
/// processor speeds or link bandwidths share one entry and refill the
/// numeric payload.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TpnSignature {
    teams: Vec<usize>,
    model: ExecModel,
}

impl TpnSignature {
    /// Signature of the TPN that [`Tpn::build`] would produce for
    /// `(shape, model)` — computable without building anything.
    pub fn of(shape: &MappingShape, model: ExecModel) -> TpnSignature {
        TpnSignature {
            teams: shape.teams().to_vec(),
            model,
        }
    }

    /// The replication vector.
    pub fn teams(&self) -> &[usize] {
        &self.teams
    }

    /// The execution model.
    pub fn model(&self) -> ExecModel {
        self.model
    }

    /// The shape this signature was taken from.
    pub fn shape(&self) -> MappingShape {
        MappingShape::new(self.teams.clone())
    }
}

/// A fully built timed Petri net for a shaped mapping and execution model.
#[derive(Debug, Clone)]
pub struct Tpn {
    shape: MappingShape,
    model: ExecModel,
    rows: usize,
    transitions: Vec<Transition>,
    places: Vec<Place>,
    in_places: Vec<Vec<PlaceId>>,
}

impl Tpn {
    /// Build the TPN of `shape` under `model`.
    ///
    /// Construction time is linear in the TPN size `O(m · N)` as claimed in
    /// §3.3 of the paper.
    pub fn build(shape: &MappingShape, model: ExecModel) -> Tpn {
        let n = shape.n_stages();
        let m = shape.n_paths();
        let cols = shape.n_columns();

        // --- transitions -------------------------------------------------
        let mut transitions = Vec::with_capacity(m * cols);
        for row in 0..m {
            for col in 0..cols {
                let (kind, resource) = if col % 2 == 0 {
                    let stage = col / 2;
                    (
                        TransKind::Compute { stage, row },
                        Resource::Proc {
                            stage,
                            slot: row % shape.team_size(stage),
                        },
                    )
                } else {
                    let file = col / 2;
                    (
                        TransKind::Comm { file, row },
                        Resource::Link {
                            file,
                            src: row % shape.team_size(file),
                            dst: row % shape.team_size(file + 1),
                        },
                    )
                };
                transitions.push(Transition {
                    kind,
                    resource,
                    col,
                    row,
                });
            }
        }
        let id = |row: usize, col: usize| -> TransId { row * cols + col };

        let mut places: Vec<Place> = Vec::new();

        // --- rule 1: row-forward dependences ------------------------------
        for row in 0..m {
            for col in 0..cols - 1 {
                places.push(Place {
                    src: id(row, col),
                    dst: id(row, col + 1),
                    tokens: 0,
                    kind: PlaceKind::RowForward,
                });
            }
        }

        // Rows in which team slot `s` of stage `i` appears, in round-robin
        // (increasing data-set) order.
        let rows_of = |stage: usize, slot: usize| -> Vec<usize> {
            (0..m)
                .filter(|&j| j % shape.team_size(stage) == slot)
                .collect()
        };
        // Close a chain of transitions into a cycle: consecutive places
        // carry no token, the wrap-around place carries one (the resource
        // is initially free and waits for its first input).
        let close_cycle = |trans: &[TransId], kind: PlaceKind, places: &mut Vec<Place>| {
            let k = trans.len();
            for l in 0..k {
                places.push(Place {
                    src: trans[l],
                    dst: trans[(l + 1) % k],
                    tokens: u32::from(l + 1 == k),
                    kind,
                });
            }
        };

        match model {
            ExecModel::Overlap => {
                for stage in 0..n {
                    for slot in 0..shape.team_size(stage) {
                        let rows = rows_of(stage, slot);
                        // rule 2: computations of this processor.
                        let comp: Vec<TransId> = rows.iter().map(|&j| id(j, 2 * stage)).collect();
                        close_cycle(&comp, PlaceKind::RoundRobinCompute, &mut places);
                        // rule 3: its sends (unless it runs the last stage).
                        if stage + 1 < n {
                            let send: Vec<TransId> =
                                rows.iter().map(|&j| id(j, 2 * stage + 1)).collect();
                            close_cycle(&send, PlaceKind::OnePortOut, &mut places);
                        }
                        // rule 4: its receives (unless it runs the first).
                        if stage > 0 {
                            let recv: Vec<TransId> =
                                rows.iter().map(|&j| id(j, 2 * stage - 1)).collect();
                            close_cycle(&recv, PlaceKind::OnePortIn, &mut places);
                        }
                    }
                }
            }
            ExecModel::Strict => {
                for stage in 0..n {
                    for slot in 0..shape.team_size(stage) {
                        let rows = rows_of(stage, slot);
                        // The processor's first/last operation in a row:
                        // receive (col 2i−1) … send (col 2i+1), clipped at
                        // the pipeline ends.
                        let first_col = if stage > 0 { 2 * stage - 1 } else { 2 * stage };
                        let last_col = if stage + 1 < n {
                            2 * stage + 1
                        } else {
                            2 * stage
                        };
                        let k = rows.len();
                        for l in 0..k {
                            places.push(Place {
                                src: id(rows[l], last_col),
                                dst: id(rows[(l + 1) % k], first_col),
                                tokens: u32::from(l + 1 == k),
                                kind: PlaceKind::StrictSequence,
                            });
                        }
                    }
                }
            }
        }

        let mut in_places = vec![Vec::new(); transitions.len()];
        for (pid, p) in places.iter().enumerate() {
            in_places[p.dst].push(pid);
        }

        let tpn = Tpn {
            shape: shape.clone(),
            model,
            rows: m,
            transitions,
            places,
            in_places,
        };
        debug_assert!(!tpn.has_deadlock(), "TPN construction produced deadlock");
        tpn
    }

    /// The mapping shape this TPN was built from.
    pub fn shape(&self) -> &MappingShape {
        &self.shape
    }

    /// Canonical structure key (replication vector + execution model) —
    /// see [`TpnSignature`].
    pub fn signature(&self) -> TpnSignature {
        TpnSignature::of(&self.shape, self.model)
    }

    /// The execution model.
    pub fn model(&self) -> ExecModel {
        self.model
    }

    /// Number of rows `m` (paths, Proposition 1).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns `2N − 1`.
    pub fn cols(&self) -> usize {
        self.shape.n_columns()
    }

    /// All transitions.
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// All places.
    pub fn places(&self) -> &[Place] {
        &self.places
    }

    /// Places feeding transition `t`.
    pub fn in_places(&self, t: TransId) -> &[PlaceId] {
        &self.in_places[t]
    }

    /// Transition id at `(row, col)`.
    pub fn trans_id(&self, row: usize, col: usize) -> TransId {
        debug_assert!(row < self.rows && col < self.cols());
        row * self.cols() + col
    }

    /// Ids of the last-column transitions (their firings are data-set
    /// completions).
    pub fn last_column(&self) -> Vec<TransId> {
        let c = self.cols() - 1;
        (0..self.rows).map(|j| self.trans_id(j, c)).collect()
    }

    /// `true` if the TPN has a token-free cycle (deadlock).  Always false
    /// for the paper's construction; exposed for the structural tests.
    pub fn has_deadlock(&self) -> bool {
        self.zero_token_topo_order().is_none()
    }

    /// Topological order of transitions under token-free places, used by
    /// the dater recurrence of [`crate::egsim`].  `None` on deadlock.
    pub fn zero_token_topo_order(&self) -> Option<Vec<TransId>> {
        let nt = self.transitions.len();
        let mut indeg = vec![0usize; nt];
        for p in &self.places {
            if p.tokens == 0 {
                indeg[p.dst] += 1;
            }
        }
        let mut out_zero: Vec<Vec<TransId>> = vec![Vec::new(); nt];
        for p in &self.places {
            if p.tokens == 0 {
                out_zero[p.src].push(p.dst);
            }
        }
        let mut stack: Vec<TransId> = (0..nt).filter(|&t| indeg[t] == 0).collect();
        let mut order = Vec::with_capacity(nt);
        while let Some(t) = stack.pop() {
            order.push(t);
            for &d in &out_zero[t] {
                indeg[d] -= 1;
                if indeg[d] == 0 {
                    stack.push(d);
                }
            }
        }
        (order.len() == nt).then_some(order)
    }

    /// The **row-rotation automorphism** `(row, col) ↦ (row + 1 mod m, col)`
    /// of the TPN's structure (Proposition 1's row symmetry): rotating the
    /// data-set paths maps every construction rule onto itself, shifting
    /// each resource cycle to the next team slot.  Returns `None` only if
    /// the structure is not closed under the rotation — never the case for
    /// this module's constructions; the option guards consumers against
    /// future construction variants.
    ///
    /// The rotation generates a cyclic group of order `m`; its orbits on
    /// the reachable markings are the states of the Theorem 2 quotient
    /// chain (see `repstream-markov`'s `QuotientGraph`).  It is a *rate*
    /// automorphism only when each stage's team and its links are
    /// homogeneous — consumers must check that against their rate table.
    pub fn row_rotation(&self) -> Option<TpnAutomorphism> {
        let m = self.rows;
        let cols = self.cols();
        let trans_perm: Vec<TransId> = self
            .transitions
            .iter()
            .map(|t| ((t.row + 1) % m) * cols + t.col)
            .collect();
        // Places keyed by (src, dst, kind): the construction never builds
        // two places with identical endpoints *and* kind, so the key is
        // unique and the rotated image can be looked up directly.
        let mut by_key: std::collections::HashMap<(TransId, TransId, PlaceKind), PlaceId> =
            std::collections::HashMap::with_capacity(self.places.len());
        for (pid, p) in self.places.iter().enumerate() {
            if by_key.insert((p.src, p.dst, p.kind), pid).is_some() {
                return None; // ambiguous parallel places: refuse
            }
        }
        let mut place_perm = Vec::with_capacity(self.places.len());
        for p in &self.places {
            let key = (trans_perm[p.src], trans_perm[p.dst], p.kind);
            place_perm.push(*by_key.get(&key)?);
        }
        Some(TpnAutomorphism {
            trans_perm,
            place_perm,
        })
    }

    /// Deterministic firing time of each transition, from per-resource
    /// times.
    pub fn firing_times(&self, times: &ResourceTable<f64>) -> Vec<f64> {
        self.transitions
            .iter()
            .map(|t| *times.get(t.resource))
            .collect()
    }

    /// Convert to a [`TokenGraph`] for critical-cycle analysis: one node
    /// per transition, one arc per place, arc weight = firing time of the
    /// *destination* transition.
    pub fn to_token_graph(&self, times: &ResourceTable<f64>) -> TokenGraph {
        let ft = self.firing_times(times);
        let mut g = TokenGraph::new(self.transitions.len());
        for p in &self.places {
            g.add_arc(p.src, p.dst, ft[p.dst], p.tokens);
        }
        g
    }

    /// Cycle time (per-firing) of each hardware resource, i.e. the total
    /// firing time a resource spends per period divided by the number of
    /// data sets — `Cexec(p)/R'_p` aggregated per data set as in §2.3 —
    /// returned as the *per-data-set cycle time* table.  The maximum over
    /// resources is `Mct`, the paper's lower bound on the period per `m`
    /// data sets: `period ≥ m · max_r cycle_time(r)`.
    ///
    /// For the Overlap model the cycle time of a resource is the maximum of
    /// its per-operation times staying on one column; for Strict it is the
    /// sum over the columns it touches.  Both are computed directly from
    /// the mapping rather than the TPN (they are properties of resources,
    /// not transitions).
    pub fn resource_cycle_times(&self, times: &ResourceTable<f64>) -> Vec<(Resource, f64)> {
        resource_cycle_times_shape(&self.shape, self.model, times)
    }

    /// The paper's `Mct`: the largest per-data-set resource cycle time;
    /// `1/Mct` is the critical-resource throughput bound of §2.3.
    pub fn max_cycle_time(&self, times: &ResourceTable<f64>) -> f64 {
        max_cycle_time_shape(&self.shape, self.model, times)
    }
}

/// Shape-level version of [`Tpn::resource_cycle_times`]: peer-slot
/// averages only need one period of the `lcm(R_i, R_{i±1})` pairwise
/// round-robin, so the computation never depends on the global `m` and
/// works for shapes whose full TPN would be astronomically large.
pub fn resource_cycle_times_shape(
    shape: &MappingShape,
    model: ExecModel,
    times: &ResourceTable<f64>,
) -> Vec<(Resource, f64)> {
    let n = shape.n_stages();
    let mut out = Vec::new();
    for stage in 0..n {
        let r = shape.team_size(stage);
        for slot in 0..r {
            // Operation times of this processor per *its own* data set: it
            // serves one data set in every R_stage.  Its receive/send peers
            // cycle with period lcm(r, r_peer); the per-data-set `Cin`/
            // `Cout` of §2.3 are the means over one peer cycle.
            let comp = *times.get(Resource::Proc { stage, slot });
            let mean_peer = |file: usize, peer_team: usize, incoming: bool| -> f64 {
                let l = crate::shape::lcm(r, peer_team) / r;
                let mut acc = 0.0;
                for t in 0..l {
                    let peer = (slot + t * r) % peer_team;
                    acc += *times.get(if incoming {
                        Resource::Link {
                            file,
                            src: peer,
                            dst: slot,
                        }
                    } else {
                        Resource::Link {
                            file,
                            src: slot,
                            dst: peer,
                        }
                    });
                }
                acc / l as f64
            };
            let cin = if stage > 0 {
                mean_peer(stage - 1, shape.team_size(stage - 1), true)
            } else {
                0.0
            };
            let cout = if stage + 1 < n {
                mean_peer(stage, shape.team_size(stage + 1), false)
            } else {
                0.0
            };
            let cycle = match model {
                ExecModel::Overlap => comp.max(cin).max(cout),
                ExecModel::Strict => comp + cin + cout,
            };
            // Per data set entering the system: the processor serves one
            // data set out of R_stage.
            out.push((Resource::Proc { stage, slot }, cycle / r as f64));
        }
    }
    out
}

/// Shape-level `Mct` (see [`Tpn::max_cycle_time`]).
pub fn max_cycle_time_shape(
    shape: &MappingShape,
    model: ExecModel,
    times: &ResourceTable<f64>,
) -> f64 {
    resource_cycle_times_shape(shape, model, times)
        .into_iter()
        .map(|(_, c)| c)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signature_keys_structure() {
        let a = MappingShape::new(vec![1, 2, 3]);
        let b = MappingShape::new(vec![1, 2, 3]);
        let c = MappingShape::new(vec![1, 3, 2]);
        assert_eq!(
            TpnSignature::of(&a, ExecModel::Strict),
            Tpn::build(&b, ExecModel::Strict).signature()
        );
        assert_ne!(
            TpnSignature::of(&a, ExecModel::Strict),
            TpnSignature::of(&a, ExecModel::Overlap)
        );
        assert_ne!(
            TpnSignature::of(&a, ExecModel::Strict),
            TpnSignature::of(&c, ExecModel::Strict)
        );
        let sig = TpnSignature::of(&a, ExecModel::Overlap);
        assert_eq!(sig.shape().teams(), a.teams());
        assert_eq!(sig.model(), ExecModel::Overlap);
    }

    fn shape_a() -> MappingShape {
        // Example A of the paper: 4 stages replicated 1, 2, 3, 1.
        MappingShape::new(vec![1, 2, 3, 1])
    }

    #[test]
    fn dimensions_match_proposition_1() {
        let tpn = Tpn::build(&shape_a(), ExecModel::Overlap);
        assert_eq!(tpn.rows(), 6);
        assert_eq!(tpn.cols(), 7);
        assert_eq!(tpn.transitions().len(), 42);
    }

    #[test]
    fn place_count_formulas() {
        // Overlap: m(2N−2) row-forward + mN round-robin + m(N−1) out +
        // m(N−1) in = m(5N−4).  Strict: m(2N−2) + mN = m(3N−2).
        for teams in [vec![1, 2, 3, 1], vec![2, 2], vec![3], vec![4, 6, 2]] {
            let shape = MappingShape::new(teams);
            let m = shape.n_paths();
            let n = shape.n_stages();
            let ov = Tpn::build(&shape, ExecModel::Overlap);
            assert_eq!(ov.places().len(), m * (5 * n - 4), "overlap {shape:?}");
            let st = Tpn::build(&shape, ExecModel::Strict);
            assert_eq!(st.places().len(), m * (3 * n - 2), "strict {shape:?}");
        }
    }

    #[test]
    fn every_place_has_valid_endpoints() {
        for model in [ExecModel::Overlap, ExecModel::Strict] {
            let tpn = Tpn::build(&shape_a(), model);
            for p in tpn.places() {
                assert!(p.src < tpn.transitions().len());
                assert!(p.dst < tpn.transitions().len());
                assert!(p.tokens <= 1, "paper's TPNs are 0/1 marked");
            }
        }
    }

    #[test]
    fn no_deadlock_on_many_shapes() {
        for teams in [
            vec![1],
            vec![2],
            vec![1, 1],
            vec![2, 3],
            vec![1, 2, 3, 1],
            vec![5, 3, 4],
            vec![2, 4, 8, 2],
        ] {
            let shape = MappingShape::new(teams);
            for model in [ExecModel::Overlap, ExecModel::Strict] {
                let tpn = Tpn::build(&shape, model);
                assert!(!tpn.has_deadlock(), "{:?} {:?}", shape, model);
                assert!(tpn.zero_token_topo_order().is_some());
            }
        }
    }

    #[test]
    fn tokens_per_resource_cycle() {
        // Each resource cycle carries exactly one token: total tokens =
        // Σ_i R_i (compute) + R_i sends + R_{i+1} receives per comm column
        // for Overlap; Σ_i R_i for Strict.
        let shape = shape_a();
        let n = shape.n_stages();
        let ov = Tpn::build(&shape, ExecModel::Overlap);
        let tokens: u32 = ov.places().iter().map(|p| p.tokens).sum();
        let expect: usize = (0..n).map(|i| shape.team_size(i)).sum::<usize>()
            + (0..n - 1)
                .map(|i| shape.team_size(i) + shape.team_size(i + 1))
                .sum::<usize>();
        assert_eq!(tokens as usize, expect);

        let st = Tpn::build(&shape, ExecModel::Strict);
        let tokens: u32 = st.places().iter().map(|p| p.tokens).sum();
        assert_eq!(tokens as usize, shape.n_processors());
    }

    #[test]
    fn round_robin_order_is_increasing_rows() {
        let tpn = Tpn::build(&shape_a(), ExecModel::Overlap);
        // Stage 1 (teams of 2): slot 0 serves rows 0,2,4; slot 1 rows 1,3,5.
        let comp_places: Vec<&Place> = tpn
            .places()
            .iter()
            .filter(|p| p.kind == PlaceKind::RoundRobinCompute)
            .filter(|p| tpn.transitions()[p.src].col == 2)
            .collect();
        // Six places total (two cycles of three rows each).
        assert_eq!(comp_places.len(), 6);
        for p in comp_places {
            let (r1, r2) = (tpn.transitions()[p.src].row, tpn.transitions()[p.dst].row);
            if p.tokens == 0 {
                assert_eq!(r2, r1 + 2, "consecutive occurrences two rows apart");
            } else {
                assert!(r1 > r2, "wrap-around goes backwards");
            }
        }
    }

    #[test]
    fn strict_sequence_links_send_to_next_receive() {
        let shape = shape_a();
        let tpn = Tpn::build(&shape, ExecModel::Strict);
        let n = shape.n_stages();
        let mut count = 0;
        for p in tpn.places() {
            if p.kind != PlaceKind::StrictSequence {
                continue;
            }
            count += 1;
            let src = tpn.transitions()[p.src];
            let dst = tpn.transitions()[p.dst];
            // Recover the owning stage from the destination column: the
            // first op of a stage-i processor is its receive (col 2i−1)
            // except for stage 0 (its compute, col 0).
            let stage = if dst.col % 2 == 1 {
                dst.col.div_ceil(2)
            } else {
                dst.col / 2
            };
            let r = shape.team_size(stage);
            // Same processor: same slot for source and destination rows.
            assert_eq!(src.row % r, dst.row % r, "place couples two processors");
            // Source is that processor's last op of its row.
            let expect_src_col = if stage + 1 < n {
                2 * stage + 1
            } else {
                2 * stage
            };
            assert_eq!(src.col, expect_src_col);
            // Round-robin: consecutive rows of the slot, or wrap with token.
            if p.tokens == 0 {
                assert_eq!(dst.row, src.row + r);
            } else {
                assert!(src.row >= dst.row);
            }
        }
        assert_eq!(count, tpn.rows() * n);
    }

    #[test]
    fn token_graph_has_arc_per_place() {
        let shape = shape_a();
        let tpn = Tpn::build(&shape, ExecModel::Overlap);
        let times = ResourceTable::from_fns(&shape, |_, _| 2.0, |_, _, _| 3.0);
        let g = tpn.to_token_graph(&times);
        assert_eq!(g.n_arcs(), tpn.places().len());
        assert_eq!(g.n_nodes(), tpn.transitions().len());
        assert!(!g.has_tokenless_cycle());
    }

    #[test]
    fn row_rotation_is_structural_automorphism() {
        for teams in [
            vec![1],
            vec![1, 1],
            vec![2, 3],
            vec![1, 2, 3, 1],
            vec![3, 4],
        ] {
            let shape = MappingShape::new(teams.clone());
            for model in [ExecModel::Overlap, ExecModel::Strict] {
                let tpn = Tpn::build(&shape, model);
                let auto = tpn.row_rotation().expect("rotation always exists");
                let m = tpn.rows();
                // trans_perm is the row rotation and a permutation.
                let mut seen = vec![false; tpn.transitions().len()];
                for (t, &img) in auto.trans_perm.iter().enumerate() {
                    assert!(!seen[img], "not injective ({teams:?} {model:?})");
                    seen[img] = true;
                    let a = tpn.transitions()[t];
                    let b = tpn.transitions()[img];
                    assert_eq!(b.row, (a.row + 1) % m);
                    assert_eq!(b.col, a.col);
                }
                // place_perm preserves endpoints and kind; it is a
                // permutation (injectivity ⇒ bijection on a finite set).
                let mut seen = vec![false; tpn.places().len()];
                for (pid, &img) in auto.place_perm.iter().enumerate() {
                    assert!(!seen[img], "place map not injective");
                    seen[img] = true;
                    let p = tpn.places()[pid];
                    let q = tpn.places()[img];
                    assert_eq!(q.src, auto.trans_perm[p.src]);
                    assert_eq!(q.dst, auto.trans_perm[p.dst]);
                    assert_eq!(q.kind, p.kind);
                }
                // m rotations compose to the identity on transitions.
                let mut t_perm: Vec<usize> = (0..tpn.transitions().len()).collect();
                for _ in 0..m {
                    t_perm = t_perm.iter().map(|&t| auto.trans_perm[t]).collect();
                }
                assert!(t_perm.iter().enumerate().all(|(i, &t)| i == t));
            }
        }
    }

    #[test]
    fn mct_no_replication_overlap() {
        // 2 stages, 1 proc each: comp times 4 and 5, comm 3.
        let shape = MappingShape::new(vec![1, 1]);
        let tpn = Tpn::build(&shape, ExecModel::Overlap);
        let times = ResourceTable::from_fns(
            &shape,
            |stage, _| if stage == 0 { 4.0 } else { 5.0 },
            |_, _, _| 3.0,
        );
        assert!((tpn.max_cycle_time(&times) - 5.0).abs() < 1e-12);
        let strict = Tpn::build(&shape, ExecModel::Strict);
        // P0: comp 4 + send 3 = 7; P1: recv 3 + comp 5 = 8.
        assert!((strict.max_cycle_time(&times) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn replication_divides_cycle_time() {
        // One stage on 3 processors, comp time 6: per data set 2.
        let shape = MappingShape::new(vec![3]);
        let tpn = Tpn::build(&shape, ExecModel::Overlap);
        let times = ResourceTable::from_fns(&shape, |_, _| 6.0, |_, _, _| 0.0);
        assert!((tpn.max_cycle_time(&times) - 2.0).abs() < 1e-12);
    }
}
