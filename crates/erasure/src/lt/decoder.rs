//! Lazy-XOR LT data decoder.
//!
//! §5.2.3 improvement 3: the greedy decoder XORs every arriving coded block
//! against already-decoded originals immediately, producing intermediate
//! values that may never help. The lazy decoder stores arriving blocks
//! untouched and performs XORs only at the moment a coded block *resolves*
//! an original (its undecoded-neighbour count reaches one):
//!
//! ```text
//! original = coded_data ⊕ (⊕ decoded neighbours)
//! ```
//!
//! Each graph edge is then charged at most one block XOR, and the XORs
//! happen on freshly-touched buffers — the memory-locality argument in the
//! paper.
//!
//! Beyond the paper: [`LtDecoder::solve`] adds a Gaussian-elimination
//! fallback (inactivation decoding) for when the peel stalls. The planner
//! guarantees the *full* N-block set peels, but an arbitrary subset — a
//! store that has lost blocks — can stall the ripple while still having
//! full rank over GF(2). Callers that have exhausted every available
//! block invoke `solve()` before declaring the decode failed, so
//! `DecodeFailed` means "mathematically insufficient", never "the peel
//! got unlucky".

use super::LtCode;
use crate::{xor_into, Block, BlockPool, CodingError};

/// Incremental decoder holding block data.
pub struct LtDecoder<'a> {
    code: &'a LtCode,
    block_len: usize,
    decoded: Vec<Option<Block>>,
    /// Data of received, still-unresolved coded blocks.
    pending_data: Vec<Option<Block>>,
    /// Undecoded-neighbour count per received coded block (`u32::MAX` =
    /// not received).
    remaining: Vec<u32>,
    /// incidence[i] = unresolved received coded blocks containing original i.
    incidence: Vec<Vec<u32>>,
    /// Buffers of duplicate/redundant/post-completion arrivals, kept for
    /// recycling into a [`crate::kernels::BlockPool`] instead of dropped.
    spares: Vec<Block>,
    decoded_count: usize,
    received_count: usize,
    xor_ops: usize,
}

impl<'a> LtDecoder<'a> {
    /// A decoder for `code` over blocks of `block_len` bytes.
    pub fn new(code: &'a LtCode, block_len: usize) -> Self {
        LtDecoder {
            code,
            block_len,
            decoded: vec![None; code.k()],
            pending_data: vec![None; code.n()],
            remaining: vec![u32::MAX; code.n()],
            incidence: vec![Vec::new(); code.k()],
            spares: Vec::new(),
            decoded_count: 0,
            received_count: 0,
            xor_ops: 0,
        }
    }

    /// Feed coded block `j` with its data, taking ownership — the buffer
    /// is decoded in place, never copied. Returns `true` once all K
    /// originals are decoded. Duplicates and post-completion arrivals are
    /// ignored (they occur naturally under speculative access: cancelled
    /// requests may already have bytes in flight, §4.1.2); their buffers
    /// land in [`LtDecoder::drain_spares`] for pool recycling.
    pub fn receive(&mut self, j: usize, data: Block) -> bool {
        assert!(j < self.code.n(), "coded index out of range");
        assert_eq!(data.len(), self.block_len, "block length mismatch");
        if self.is_complete() || self.remaining[j] != u32::MAX {
            self.spares.push(data);
            return self.is_complete();
        }
        self.received_count += 1;
        let mut undecoded = 0u32;
        for &i in self.code.neighbors(j) {
            if self.decoded[i as usize].is_none() {
                undecoded += 1;
                self.incidence[i as usize].push(j as u32);
            }
        }
        self.remaining[j] = undecoded;
        if undecoded == 0 {
            self.spares.push(data);
            return self.is_complete();
        }
        self.pending_data[j] = Some(data);
        if undecoded == 1 {
            self.resolve_from(j);
        }
        self.is_complete()
    }

    fn resolve_from(&mut self, start: usize) {
        let mut worklist = vec![start as u32];
        while let Some(j) = worklist.pop() {
            let j = j as usize;
            if self.remaining[j] != 1 {
                continue;
            }
            let mut buf = self.pending_data[j]
                .take()
                .expect("unresolved block has data");
            let mut target = None;
            for &i in self.code.neighbors(j) {
                match &self.decoded[i as usize] {
                    Some(known) => {
                        xor_into(&mut buf, known);
                        self.xor_ops += 1;
                    }
                    None => {
                        debug_assert!(target.is_none(), "remaining==1 invariant");
                        target = Some(i as usize);
                    }
                }
            }
            let target = target.expect("one undecoded neighbour");
            self.remaining[j] = 0;
            self.decoded[target] = Some(buf);
            self.decoded_count += 1;
            let incident = std::mem::take(&mut self.incidence[target]);
            for &other in &incident {
                let o = other as usize;
                if self.remaining[o] != u32::MAX && self.remaining[o] > 0 {
                    self.remaining[o] -= 1;
                    if self.remaining[o] == 1 {
                        worklist.push(other);
                    }
                }
            }
        }
    }

    /// Gaussian-elimination fallback for a stalled peel (inactivation
    /// decoding). Every received-but-unresolved coded block becomes one
    /// GF(2) equation over the still-undecoded originals (its data
    /// pre-reduced by the already-decoded neighbours); elimination with
    /// on-line reduction then back-substitution recovers all of them iff
    /// the system has full rank. Returns `true` when the decode is
    /// complete afterwards.
    ///
    /// Call this only once no further blocks can arrive — it consumes the
    /// pending blocks. On `false` the decoder is spent: every consumed
    /// buffer moves to the spare list so [`LtDecoder::drain_all`] (or
    /// [`LtDecoder::drain_spares`]) still reclaims everything. Block XORs
    /// performed here are charged to [`LtDecoder::xor_ops`] like any
    /// other.
    pub fn solve(&mut self) -> bool {
        if self.is_complete() {
            return true;
        }
        let k = self.code.k();
        // Dense GE columns for the undecoded originals.
        let mut col_of = vec![usize::MAX; k];
        let mut unknowns: Vec<usize> = Vec::new();
        for (i, col) in col_of.iter_mut().enumerate().take(k) {
            if self.decoded[i].is_none() {
                *col = unknowns.len();
                unknowns.push(i);
            }
        }
        let u = unknowns.len();
        let words = u.div_ceil(64);

        // Pivot rows in establishment order: coefficient bitsets and data
        // kept in parallel vectors (data is taken during back-substitution).
        let mut bit_rows: Vec<Vec<u64>> = Vec::new();
        let mut data_rows: Vec<Option<Block>> = Vec::new();
        let mut pivot_col: Vec<usize> = Vec::new();
        let mut pivot_of: Vec<Option<usize>> = vec![None; u];

        for j in 0..self.code.n() {
            let Some(mut data) = self.pending_data[j].take() else {
                continue;
            };
            self.remaining[j] = 0; // consumed by the solver
            let mut bits = vec![0u64; words];
            for &i in self.code.neighbors(j) {
                let i = i as usize;
                match &self.decoded[i] {
                    Some(known) => {
                        xor_into(&mut data, known);
                        self.xor_ops += 1;
                    }
                    None => {
                        let c = col_of[i];
                        bits[c / 64] ^= 1u64 << (c % 64);
                    }
                }
            }
            // On-line reduction against established pivots; a row that
            // reduces to zero is redundant and its buffer recycles.
            loop {
                let Some(c) = lowest_set(&bits) else {
                    self.spares.push(data);
                    break;
                };
                match pivot_of[c] {
                    Some(r) => {
                        for (b, pw) in bits.iter_mut().zip(&bit_rows[r]) {
                            *b ^= pw;
                        }
                        xor_into(&mut data, data_rows[r].as_ref().expect("pivot holds data"));
                        self.xor_ops += 1;
                    }
                    None => {
                        pivot_of[c] = Some(bit_rows.len());
                        pivot_col.push(c);
                        bit_rows.push(bits);
                        data_rows.push(Some(data));
                        break;
                    }
                }
            }
        }

        if bit_rows.len() < u {
            // Rank-deficient: genuinely not decodable from what arrived.
            // Recycle the pivot buffers; the decoder is spent.
            self.spares.extend(data_rows.into_iter().flatten());
            return false;
        }

        // Back-substitute in decreasing pivot-column order: elimination
        // ran lowest-bit-first, so a pivot row's leftover bits all sit in
        // strictly higher columns — whose rows are fully reduced to
        // singletons by the time this loop reaches it.
        for own in (0..u).rev() {
            let r = pivot_of[own].expect("full rank: every column has a pivot");
            let mut d = data_rows[r].take().expect("pivot row has data");
            for (w, &row_word) in bit_rows[r].iter().enumerate() {
                let mut word = row_word;
                while word != 0 {
                    let c = w * 64 + word.trailing_zeros() as usize;
                    word &= word - 1;
                    if c == own {
                        continue;
                    }
                    let r2 = pivot_of[c].expect("full rank: every column has a pivot");
                    xor_into(
                        &mut d,
                        data_rows[r2].as_ref().expect("later pivot reduced first"),
                    );
                    self.xor_ops += 1;
                }
            }
            data_rows[r] = Some(d);
        }
        for r in 0..bit_rows.len() {
            let original = unknowns[pivot_col[r]];
            self.decoded[original] = data_rows[r].take();
            self.decoded_count += 1;
        }
        debug_assert!(self.is_complete());
        true
    }

    /// True when every original block is decoded.
    pub fn is_complete(&self) -> bool {
        self.decoded_count == self.code.k()
    }

    /// Distinct coded blocks received so far.
    pub fn received(&self) -> usize {
        self.received_count
    }

    /// Originals decoded so far.
    pub fn decoded_count(&self) -> usize {
        self.decoded_count
    }

    /// Block XOR operations performed (the lazy decoder's cost metric).
    pub fn xor_ops(&self) -> usize {
        self.xor_ops
    }

    /// Reception overhead so far: received/K − 1.
    pub fn reception_overhead(&self) -> f64 {
        self.received_count as f64 / self.code.k() as f64 - 1.0
    }

    /// Take the buffers of arrivals that contributed nothing (duplicates,
    /// fully-redundant blocks, post-completion stragglers — plus, once
    /// decoding is complete, received blocks the peel never resolved) so
    /// callers can return them to a [`crate::kernels::BlockPool`].
    pub fn drain_spares(&mut self) -> Vec<Block> {
        let mut out = std::mem::take(&mut self.spares);
        if self.is_complete() {
            out.extend(self.pending_data.iter_mut().filter_map(Option::take));
        }
        out
    }

    /// Abandon the decode: take *every* buffer the decoder holds —
    /// spares, unresolved arrivals, and already-decoded originals — so a
    /// failed or aborted read can return them all to a
    /// [`crate::kernels::BlockPool`] instead of leaking them. The
    /// decoder is spent afterwards; feed it nothing more.
    pub fn drain_all(&mut self) -> Vec<Block> {
        let mut out = std::mem::take(&mut self.spares);
        out.extend(self.pending_data.iter_mut().filter_map(Option::take));
        out.extend(self.decoded.iter_mut().filter_map(Option::take));
        out
    }

    /// Finish the decode once every available block has been fed: the
    /// peel's result if it completed, else the [`LtDecoder::solve`]
    /// fallback. Buffers the data does not need go back to `pool` — the
    /// spares on success, every buffer on failure — and the K originals
    /// come back in order. The decoder is spent afterwards.
    ///
    /// # Errors
    /// [`CodingError::DecodeFailed`] when the received blocks do not span
    /// the K originals over GF(2).
    pub fn finish(&mut self, pool: &mut BlockPool) -> Result<Vec<Block>, CodingError> {
        let complete = self.is_complete() || self.solve();
        pool.put_all(self.drain_spares());
        if !complete {
            pool.put_all(self.drain_all());
            return Err(CodingError::DecodeFailed);
        }
        Ok(self
            .decoded
            .iter_mut()
            .map(|b| b.take().expect("complete decode has every block"))
            .collect())
    }

    /// Extract the decoded data; `None` if decoding is incomplete.
    pub fn into_data(self) -> Option<Vec<Block>> {
        if !self.is_complete() {
            return None;
        }
        Some(
            self.decoded
                .into_iter()
                .map(|b| b.expect("complete decode has every block"))
                .collect(),
        )
    }
}

/// Index of the lowest set bit across a little-endian word array.
fn lowest_set(bits: &[u64]) -> Option<usize> {
    for (w, &word) in bits.iter().enumerate() {
        if word != 0 {
            return Some(w * 64 + word.trailing_zeros() as usize);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lt::{peel::SymbolDecoder, LtParams};
    use rand::seq::SliceRandom;
    use robustore_simkit::SeedSequence;

    fn make_data(k: usize, len: usize) -> Vec<Block> {
        (0..k)
            .map(|i| {
                (0..len)
                    .map(|j| ((i * 53 + j * 29 + 9) % 256) as u8)
                    .collect()
            })
            .collect()
    }

    /// Turn an encoded set into single-use owned blocks, so tests feed the
    /// decoder by move (ownership, not clones).
    fn take_by_move(coded: Vec<Block>) -> Vec<Option<Block>> {
        coded.into_iter().map(Some).collect()
    }

    #[test]
    fn data_decoder_agrees_with_symbol_decoder() {
        // The index-only decoder used by the simulator must complete at
        // exactly the same arrival as the real data decoder.
        let code = LtCode::plan(96, 384, LtParams::default(), 55).unwrap();
        let data = make_data(96, 32);
        let mut coded = take_by_move(code.encode(&data).unwrap());
        let mut order: Vec<usize> = (0..code.n()).collect();
        let mut rng = SeedSequence::new(8).fork("order", 0);
        order.shuffle(&mut rng);

        let mut sym = SymbolDecoder::new(&code);
        let mut dat = LtDecoder::new(&code, 32);
        for &j in &order {
            let s_done = sym.receive(j);
            let d_done = dat.receive(j, coded[j].take().unwrap());
            assert_eq!(s_done, d_done, "divergence at block {j}");
            if s_done {
                break;
            }
        }
        assert_eq!(sym.received(), dat.received());
        assert_eq!(dat.into_data().unwrap(), data);
    }

    #[test]
    fn lazy_xor_cost_is_bounded_by_edges() {
        let code = LtCode::plan(128, 512, LtParams::default(), 56).unwrap();
        let data = make_data(128, 16);
        let coded = code.encode(&data).unwrap();
        let mut dec = LtDecoder::new(&code, 16);
        for (j, block) in coded.into_iter().enumerate() {
            if dec.receive(j, block) {
                break;
            }
        }
        assert!(dec.is_complete());
        // Lazy decoding touches each edge of a *used* block once; total
        // XORs can never exceed the full edge count.
        assert!(dec.xor_ops() <= code.edge_count());
    }

    #[test]
    fn duplicate_and_late_blocks_ignored() {
        let code = LtCode::plan(32, 128, LtParams::default(), 57).unwrap();
        let data = make_data(32, 8);
        let coded = code.encode(&data).unwrap();
        let mut dec = LtDecoder::new(&code, 8);
        for (j, block) in coded.iter().enumerate() {
            dec.receive(j, block.clone());
            dec.receive(j, block.clone()); // duplicate
            if dec.is_complete() {
                break;
            }
        }
        let at_completion = dec.received();
        // A straggler arriving after completion changes nothing.
        assert!(dec.receive(code.n() - 1, coded[code.n() - 1].clone()));
        assert_eq!(dec.received(), at_completion);
        // Every duplicate/straggler buffer is recoverable for pooling.
        assert!(dec.drain_spares().len() >= at_completion);
        assert_eq!(dec.into_data().unwrap(), data);
    }

    #[test]
    fn decode_is_zero_copy() {
        // Ownership pass: every decoded original must live in one of the
        // exact buffers fed to `receive` — no hidden copies anywhere in
        // the peel. Pointer identity is the strongest possible witness.
        let code = LtCode::plan(64, 256, LtParams::default(), 60).unwrap();
        let data = make_data(64, 48);
        let mut coded = take_by_move(code.encode(&data).unwrap());
        let mut order: Vec<usize> = (0..code.n()).collect();
        let mut rng = SeedSequence::new(9).fork("order", 0);
        order.shuffle(&mut rng);

        let mut fed: Vec<*const u8> = Vec::new();
        let mut dec = LtDecoder::new(&code, 48);
        for &j in &order {
            let block = coded[j].take().unwrap();
            fed.push(block.as_ptr());
            if dec.receive(j, block) {
                break;
            }
        }
        assert!(dec.is_complete());
        let spares: Vec<*const u8> = dec.drain_spares().iter().map(|b| b.as_ptr()).collect();
        let decoded = dec.into_data().unwrap();
        assert_eq!(decoded, data);
        for (i, b) in decoded.iter().enumerate() {
            assert!(
                fed.contains(&b.as_ptr()),
                "original {i} was copied instead of moved"
            );
        }
        // Fed buffers are fully accounted for: decoded + recyclable spares.
        assert_eq!(decoded.len() + spares.len(), fed.len());
    }

    #[test]
    fn pooled_request_loop_stops_allocating_after_warmup() {
        // The BlockPool byte-allocation counter proves the
        // encode/receive/decode path allocates nothing itself: seed the
        // pool with enough buffers for one trial (a trial feeds at most N
        // blocks) and both trials run entirely on recycled buffers.
        let code = LtCode::plan(48, 192, LtParams::default(), 61).unwrap();
        let data = make_data(48, 32);
        let mut pool = BlockPool::new(32);
        pool.put_all((0..code.n()).map(|_| vec![0u8; 32]));
        for trial in 0..2u64 {
            let mut order: Vec<usize> = (0..code.n()).collect();
            order.shuffle(&mut SeedSequence::new(10).fork("order", trial));
            let mut dec = LtDecoder::new(&code, 32);
            for &j in &order {
                let mut buf = pool.get();
                code.encode_block_into(&data, j, &mut buf);
                if dec.receive(j, buf) {
                    break;
                }
            }
            assert!(dec.is_complete());
            pool.put_all(dec.drain_spares());
            let decoded = dec.into_data().unwrap();
            assert_eq!(decoded, data);
            pool.put_all(decoded);
            assert_eq!(
                pool.allocated_bytes(),
                0,
                "trial {trial} allocated (hidden copy or leak otherwise)"
            );
        }
        assert!(pool.reuses() > 0);
    }

    #[test]
    fn incomplete_returns_none() {
        let code = LtCode::plan(32, 128, LtParams::default(), 58).unwrap();
        let data = make_data(32, 8);
        let mut coded = take_by_move(code.encode(&data).unwrap());
        let mut dec = LtDecoder::new(&code, 8);
        dec.receive(0, coded[0].take().unwrap());
        assert!(!dec.is_complete());
        assert!(dec.into_data().is_none());
    }

    #[test]
    fn drain_all_reclaims_every_fed_buffer() {
        // An abandoned decode must account for every buffer it was fed:
        // whatever state each arrival is in (spare, pending, or already
        // peeled into a decoded original), drain_all hands it back.
        let code = LtCode::plan(32, 128, LtParams::default(), 62).unwrap();
        let data = make_data(32, 8);
        let mut coded = take_by_move(code.encode(&data).unwrap());
        let mut dec = LtDecoder::new(&code, 8);
        let fed = 20usize; // partial: decode incomplete
        for (j, block) in coded.iter_mut().enumerate().take(fed) {
            dec.receive(j, block.take().unwrap());
            dec.receive(j, vec![0u8; 8]); // duplicate lands in spares
        }
        assert!(!dec.is_complete());
        let drained = dec.drain_all();
        assert_eq!(drained.len(), 2 * fed, "every fed buffer reclaimed");
        assert!(drained.iter().all(|b| b.len() == 8));
        assert!(dec.drain_all().is_empty(), "second drain finds nothing");
    }

    /// GF(2) rank of the survivor equations, by dense elimination over
    /// u64 bitmasks (independent of the decoder under test; k ≤ 64).
    fn subset_rank(code: &LtCode, survivors: &[usize]) -> usize {
        let mut rows: Vec<u64> = survivors
            .iter()
            .map(|&j| code.neighbors(j).iter().fold(0u64, |m, &i| m | 1 << i))
            .collect();
        let mut rank = 0;
        for c in 0..code.k() {
            if let Some(p) = (rank..rows.len()).find(|&r| rows[r] >> c & 1 == 1) {
                rows.swap(rank, p);
                let pv = rows[rank];
                for (r, row) in rows.iter_mut().enumerate() {
                    if r != rank && *row >> c & 1 == 1 {
                        *row ^= pv;
                    }
                }
                rank += 1;
            }
        }
        rank
    }

    /// Find a (seed, loss pattern) where pure peeling stalls on the
    /// surviving subset even though it has full rank — the situation a
    /// store that lost blocks puts the decoder in.
    fn stalled_case(k: usize, n: usize, drop: usize) -> (LtCode, Vec<usize>) {
        for seed in 0..500u64 {
            let code = LtCode::plan(k, n, LtParams::recommended(), seed).unwrap();
            for pattern in 0..20u64 {
                let mut rng = SeedSequence::new(seed).fork("drop", pattern);
                let mut survivors: Vec<usize> = (0..n).collect();
                survivors.shuffle(&mut rng);
                survivors.truncate(n - drop);
                let mut probe = SymbolDecoder::new(&code);
                let stalled = !survivors.iter().any(|&j| probe.receive(j));
                if stalled && subset_rank(&code, &survivors) == k {
                    return (code, survivors);
                }
            }
        }
        panic!("no stalled full-rank peel found — loosen the search");
    }

    #[test]
    fn ge_fallback_rescues_a_stalled_peel() {
        // k=30, n=75, 25 lost: some loss patterns stall the peel even
        // though the survivors still span all originals over GF(2). The
        // GE fallback must recover exactly the original data from such
        // a subset.
        let (code, survivors) = stalled_case(30, 75, 25);
        let data = make_data(30, 32);
        let coded = code.encode(&data).unwrap();
        let mut dec = LtDecoder::new(&code, 32);
        for &j in &survivors {
            assert!(!dec.receive(j, coded[j].clone()), "peel must stall");
        }
        assert!(!dec.is_complete());
        assert!(dec.solve(), "full-rank subset must solve");
        // Every fed buffer is accounted for: decoded originals plus
        // recyclable spares (redundant GE rows, pre-solve spares).
        let spares = dec.drain_spares().len();
        let decoded = dec.into_data().unwrap();
        assert_eq!(decoded, data);
        assert_eq!(decoded.len() + spares, survivors.len());
    }

    #[test]
    fn solve_is_a_cheap_no_op_when_already_complete() {
        let code = LtCode::plan(32, 128, LtParams::default(), 77).unwrap();
        let data = make_data(32, 8);
        let coded = code.encode(&data).unwrap();
        let mut dec = LtDecoder::new(&code, 8);
        for (j, b) in coded.into_iter().enumerate() {
            if dec.receive(j, b) {
                break;
            }
        }
        let xors = dec.xor_ops();
        assert!(dec.solve());
        assert_eq!(dec.xor_ops(), xors, "no work when the peel finished");
        assert_eq!(dec.into_data().unwrap(), data);
    }

    #[test]
    fn solve_refuses_a_rank_deficient_subset_and_leaks_nothing() {
        let code = LtCode::plan(32, 128, LtParams::default(), 78).unwrap();
        let data = make_data(32, 8);
        let coded = code.encode(&data).unwrap();
        let mut dec = LtDecoder::new(&code, 8);
        // 10 blocks cannot span 32 unknowns: rank must be deficient.
        let fed = 10usize;
        for (j, block) in coded.iter().enumerate().take(fed) {
            dec.receive(j, block.clone());
        }
        assert!(!dec.solve());
        assert!(!dec.is_complete());
        // All fed buffers are reclaimable after the failed solve.
        assert_eq!(dec.drain_all().len(), fed);
    }

    #[test]
    fn finish_solves_a_stalled_peel_and_pools_the_spares() {
        let (code, survivors) = stalled_case(30, 75, 25);
        let data = make_data(30, 32);
        let coded = code.encode(&data).unwrap();
        let mut pool = BlockPool::new(32);
        let mut dec = LtDecoder::new(&code, 32);
        for &j in &survivors {
            dec.receive(j, coded[j].clone());
        }
        assert_eq!(dec.finish(&mut pool).unwrap(), data);
        // Adopted buffers count as returns: every fed buffer is either a
        // decoded original or back in the pool.
        assert_eq!(pool.available(), survivors.len() - data.len());
        assert!(dec.drain_all().is_empty(), "the decoder is spent");
    }

    #[test]
    fn finish_fails_a_rank_deficient_subset_and_pools_everything() {
        let code = LtCode::plan(32, 128, LtParams::default(), 78).unwrap();
        let data = make_data(32, 8);
        let coded = code.encode(&data).unwrap();
        let mut pool = BlockPool::new(8);
        let mut dec = LtDecoder::new(&code, 8);
        let fed = 10usize;
        for (j, block) in coded.iter().enumerate().take(fed) {
            dec.receive(j, block.clone());
        }
        assert_eq!(dec.finish(&mut pool), Err(CodingError::DecodeFailed));
        assert_eq!(pool.available(), fed, "every fed buffer pooled");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_block_length_panics() {
        let code = LtCode::plan(8, 16, LtParams::default(), 59).unwrap();
        let mut dec = LtDecoder::new(&code, 8);
        dec.receive(0, vec![0u8; 9]);
    }
}
