//! Seeded input generation: the statement stream each workload sends.
//!
//! Everything the system receives — which statement runs next, the key it
//! reads (zipfian or uniform rank), the fresh key each insert gets — is
//! drawn here from the `--seed` argument before the timed phase starts.
//! Statement choice uses shuffled decks, each dealt in seeded order and
//! refilled when empty: one deck deals reads and writes in the mix's ratio
//! (19:1 for `browsing`), one deals read statements by weight and one deals
//! the thirteen writes.  A run's operation count is a whole number of write
//! decks, so every run sends exactly the stated mix and two seeds differ
//! in order and keys, not in how many of each statement they send.

use relational::Value;
use tpcw::datagen::{customer_uname, SUBJECTS};
use tpcw::zipf::Zipf;

/// The benchmark's workloads (see README.md for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// TPC-W browsing mix: 95% reads over eleven joins, zipfian keys.
    Browsing,
    /// TPC-W ordering mix: 50% keyed reads, 50% writes, uniform keys.
    Ordering,
    /// §IX-B micro-benchmark: the three-way Q2 join answered from its view.
    Scan,
}

impl Workload {
    /// Parses a `--workload` argument.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "browsing" => Some(Workload::Browsing),
            "ordering" => Some(Workload::Ordering),
            "scan" => Some(Workload::Scan),
            _ => None,
        }
    }

    /// The workload's name as `BENCHMARK.json` lists it.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Browsing => "browsing",
            Workload::Ordering => "ordering",
            Workload::Scan => "scan",
        }
    }

    /// Executor worker count: only `scan` runs the region-parallel fan-out.
    pub fn threads(self) -> usize {
        match self {
            Workload::Scan => 2,
            _ => 1,
        }
    }

    /// The fixed operation count of one run: the nominal rate of the
    /// workload on a 2-core x86-64 host times `--seconds`, rounded to whole
    /// mix and write decks.  A run lasts about `--seconds` there, while the
    /// operation stream — and with it every sim-time and count metric —
    /// stays a pure function of `(seed, seconds)`.
    pub fn op_count(self, seconds: u64) -> usize {
        let per_second = match self {
            Workload::Browsing => 60,
            Workload::Ordering => 600,
            Workload::Scan => 12,
        };
        let (mix, writes) = self.mix();
        let write_deck = self.write_labels().len();
        let unit = mix.len() * write_deck / gcd(writes as i64, write_deck as i64) as usize;
        let decks = (per_second * seconds.max(1)) as f64 / unit as f64;
        unit * (decks.round() as usize).max(1)
    }

    /// The read/write deck and how many writes it holds.
    fn mix(self) -> (Vec<Kind>, usize) {
        let (reads, writes) = match self {
            Workload::Browsing => (BROWSING_READS_PER_WRITE, 1),
            Workload::Ordering => (1, 1),
            Workload::Scan => (1, SCAN_WRITES_PER_READ),
        };
        let mut deck = vec![Kind::Read; reads];
        deck.extend(std::iter::repeat_n(Kind::Write, writes));
        (deck, writes)
    }

    /// The read statements and their relative weights.
    fn read_weights(self) -> &'static [(&'static str, usize)] {
        match self {
            Workload::Browsing => &BROWSING_READS,
            Workload::Ordering => &ORDERING_READS,
            Workload::Scan => &[("Q2", 1)],
        }
    }

    /// The write statements, each dealt once per write deck.
    fn write_labels(self) -> Vec<&'static str> {
        match self {
            Workload::Scan => vec!["W_ol"],
            _ => tpcw::write_statements().iter().map(|w| w.id).collect(),
        }
    }
}

/// Whether an operation reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A SELECT.
    Read,
    /// An INSERT, UPDATE or DELETE.
    Write,
}

/// One generated operation: SQL text plus parameters, as a client sends it.
#[derive(Debug, Clone)]
pub struct Op {
    /// Statement identifier ("Q6", "W3", "Q2").
    pub label: &'static str,
    /// SQL text with `?` placeholders.
    pub sql: &'static str,
    /// Positional parameters.
    pub params: Vec<Value>,
    /// Read or write.
    pub kind: Kind,
    /// Whether the correctness check re-answers this read from the base
    /// tables (a seeded sample of reads).
    pub check: bool,
}

/// The key ranges the generator draws from: sizes of the loaded relations
/// and the live shopping-cart lines (W8 deletes and W12 updates must name
/// a line that exists when they run).
#[derive(Debug, Clone)]
pub struct KeySpace {
    /// Loaded customers (`c_id` 1..=customers).
    pub customers: i64,
    /// Loaded items (`i_id` 1..=items).
    pub items: i64,
    /// Loaded orders (`o_id` 1..=orders).
    pub orders: i64,
    /// Loaded addresses.
    pub addresses: i64,
    /// Loaded shopping carts.
    pub carts: i64,
    /// Loaded `(scl_sc_id, scl_i_id)` pairs.
    pub cart_lines: Vec<(i64, i64)>,
}

/// The micro-benchmark's Q2: Customer ⋈ Orders ⋈ Order_line, no filter.
pub const SCAN_Q2: &str = "SELECT * FROM Customer AS c, Orders AS o, Order_line AS ol \
                           WHERE c.c_id = o.o_c_id AND o.o_id = ol.ol_o_id";

/// The micro-benchmark's write: one order line for an existing order,
/// maintained into the Q2 view by the single-lock transaction.
pub const SCAN_INSERT: &str =
    "INSERT INTO Order_line (ol_o_id, ol_id, ol_i_id, ol_qty) VALUES (?, ?, ?, ?)";

/// Distinct items the micro-benchmark's order lines refer to.
pub const SCAN_ITEMS: i64 = 1_000;

/// Fresh keys start here, far above every loaded key range.
const FRESH_BASE: i64 = 1_000_000;

/// Share of `browsing` reads re-answered from the base tables.
const BROWSING_CHECK_RATE: f64 = 0.04;
/// Share of `ordering` reads re-answered from the base tables.
const ORDERING_CHECK_RATE: f64 = 0.01;
/// Order-line inserts per `scan` read.
const SCAN_WRITES_PER_READ: usize = 3;

/// Browsing read weights (TPC-W browsing mix, relative).
const BROWSING_READS: [(&str, usize); 11] = [
    ("Q6", 20),
    ("Q4", 10),
    ("Q5", 10),
    ("Q8", 10),
    ("Q10", 8),
    ("Q11", 8),
    ("Q1", 8),
    ("Q2", 8),
    ("Q3", 7),
    ("Q7", 4),
    ("Q9", 2),
];
/// Browsing reads per write: 95% reads.
const BROWSING_READS_PER_WRITE: usize = 19;

/// Ordering read weights (keyed reads only).
const ORDERING_READS: [(&str, usize); 6] = [
    ("Q1", 10),
    ("Q2", 10),
    ("Q3", 10),
    ("Q6", 10),
    ("Q8", 10),
    ("Q7", 2),
];
/// SplitMix64: small, seedable and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Uniform in `1..=n`.
    pub fn key(&mut self, n: i64) -> i64 {
        self.below(n.max(1) as u64) as i64 + 1
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Draws keys of one domain: zipfian ranks mapped through a seeded affine
/// permutation (so the hot keys are not simply the lowest ids), or uniform.
struct KeyDraw {
    n: i64,
    zipf: Option<Zipf>,
    stride: i64,
    offset: i64,
}

impl KeyDraw {
    fn new(n: i64, skewed: bool, rng: &mut Rng) -> KeyDraw {
        let n = n.max(1);
        let mut stride = rng.key(n);
        while gcd(stride, n) != 1 {
            stride = stride % n + 1;
        }
        KeyDraw {
            n,
            zipf: skewed.then(|| Zipf::new(n as u64, 1.1, rng.next_u64())),
            stride,
            offset: rng.below(n as u64) as i64,
        }
    }

    fn draw(&mut self, rng: &mut Rng) -> i64 {
        match &mut self.zipf {
            Some(zipf) => {
                let rank = zipf.sample() as i64 - 1;
                (rank * self.stride + self.offset) % self.n + 1
            }
            None => rng.key(self.n),
        }
    }
}

fn gcd(a: i64, b: i64) -> i64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Generated inputs of one run.
pub struct Inputs {
    /// One operation of each statement the mix sends, run before timing so
    /// first-use costs (plan compilation, interning) are paid up front.
    pub warm_up: Vec<Op>,
    /// The timed operations.
    pub ops: Vec<Op>,
}

/// Generates the warm-up and `count` timed operations of `workload` from
/// `seed`.
pub fn generate(workload: Workload, keys: &KeySpace, seed: u64, count: usize) -> Inputs {
    let mut generator = Generator::new(workload, keys, seed);
    let warm_up = generator.warm_up();
    Inputs {
        warm_up,
        ops: generator.take(count),
    }
}

/// A shuffled deck: deals its cards in seeded order, refilled when empty.
struct Deck<T> {
    cards: Vec<T>,
    hand: Vec<T>,
}

impl<T: Copy> Deck<T> {
    fn new(cards: Vec<T>) -> Deck<T> {
        Deck {
            cards,
            hand: Vec::new(),
        }
    }

    fn deal(&mut self, rng: &mut Rng) -> T {
        if self.hand.is_empty() {
            self.hand = self.cards.clone();
            rng.shuffle(&mut self.hand);
        }
        // The hand was just refilled from a non-empty deck.
        self.hand.pop().unwrap_or(self.cards[0])
    }
}

struct Generator<'a> {
    workload: Workload,
    keys: &'a KeySpace,
    rng: Rng,
    mix: Deck<Kind>,
    reads: Deck<&'static str>,
    writes: Deck<&'static str>,
    customers: KeyDraw,
    items: KeyDraw,
    orders: KeyDraw,
    carts: KeyDraw,
    subjects: KeyDraw,
    live_cart_lines: Vec<(i64, i64)>,
    next_fresh: i64,
    check_rate: f64,
}

impl<'a> Generator<'a> {
    fn new(workload: Workload, keys: &'a KeySpace, seed: u64) -> Generator<'a> {
        let mut rng = Rng::new(seed, workload as u64 + 1);
        let skewed = workload == Workload::Browsing;
        let check_rate = match workload {
            Workload::Browsing => BROWSING_CHECK_RATE,
            Workload::Ordering => ORDERING_CHECK_RATE,
            Workload::Scan => 0.0,
        };
        let mut reads = Vec::new();
        for &(label, weight) in workload.read_weights() {
            reads.extend(std::iter::repeat_n(label, weight));
        }
        Generator {
            workload,
            keys,
            customers: KeyDraw::new(keys.customers, skewed, &mut rng),
            items: KeyDraw::new(keys.items, skewed, &mut rng),
            orders: KeyDraw::new(keys.orders, skewed, &mut rng),
            carts: KeyDraw::new(keys.carts, skewed, &mut rng),
            subjects: KeyDraw::new(SUBJECTS.len() as i64, skewed, &mut rng),
            rng,
            mix: Deck::new(workload.mix().0),
            reads: Deck::new(reads),
            writes: Deck::new(workload.write_labels()),
            live_cart_lines: keys.cart_lines.clone(),
            next_fresh: FRESH_BASE,
            check_rate,
        }
    }

    /// One operation of each statement, unchecked, drawn like the timed ones
    /// (inserts take fresh keys from the same counter).
    fn warm_up(&mut self) -> Vec<Op> {
        let workload = self.workload;
        let mut ops: Vec<Op> = workload
            .read_weights()
            .iter()
            .map(|&(label, _)| self.read(label))
            .collect();
        ops.extend(
            workload
                .write_labels()
                .into_iter()
                .map(|label| self.write(label)),
        );
        for op in &mut ops {
            op.check = false;
        }
        ops
    }

    fn take(mut self, count: usize) -> Vec<Op> {
        (0..count).map(|_| self.next_op()).collect()
    }

    fn next_op(&mut self) -> Op {
        match self.mix.deal(&mut self.rng) {
            Kind::Read => {
                let label = self.reads.deal(&mut self.rng);
                self.read(label)
            }
            Kind::Write => {
                let label = self.writes.deal(&mut self.rng);
                self.write(label)
            }
        }
    }

    fn fresh(&mut self) -> i64 {
        self.next_fresh += 1;
        self.next_fresh
    }

    fn read(&mut self, label: &'static str) -> Op {
        let rng = &mut self.rng;
        let (sql, params) = if self.workload == Workload::Scan {
            (SCAN_Q2, Vec::new())
        } else {
            let sql = query_sql(label);
            let params = match label {
                "Q1" | "Q7" => vec![Value::Int(self.orders.draw(rng))],
                "Q2" | "Q3" => vec![Value::str(customer_uname(self.customers.draw(rng)))],
                "Q4" | "Q5" | "Q10" => {
                    vec![Value::str(SUBJECTS[self.subjects.draw(rng) as usize - 1])]
                }
                "Q6" | "Q9" | "Q11" => vec![Value::Int(self.items.draw(rng))],
                "Q8" => vec![Value::Int(self.carts.draw(rng))],
                other => unreachable!("no parameters defined for {other}"),
            };
            (sql, params)
        };
        let check = self.rng.unit() < self.check_rate;
        Op {
            label,
            sql,
            params,
            kind: Kind::Read,
            check,
        }
    }

    fn write(&mut self, label: &'static str) -> Op {
        if self.workload == Workload::Scan {
            let o_id = self.rng.key(self.keys.orders);
            let ol_id = self.fresh();
            let item = self.rng.key(SCAN_ITEMS);
            let qty = self.rng.key(5);
            return Op {
                label,
                sql: SCAN_INSERT,
                params: vec![o_id.into(), ol_id.into(), item.into(), qty.into()],
                kind: Kind::Write,
                check: false,
            };
        }
        let params = self.write_params(label);
        Op {
            label,
            sql: write_sql(label),
            params,
            kind: Kind::Write,
            check: false,
        }
    }

    /// Parameters of one TPC-W write.  Inserts get fresh keys; updates and
    /// deletes name a row that exists when they run.
    fn write_params(&mut self, label: &str) -> Vec<Value> {
        let k = self.keys;
        match label {
            "W1" => vec![
                self.fresh().into(),
                self.rng.key(k.customers).into(),
                Value::str("2017-07-01"),
                Value::Float(90.0),
                Value::Float(10.0),
                Value::Float(100.0),
                Value::str("AIR"),
                Value::str("2017-07-03"),
                self.rng.key(k.addresses).into(),
                self.rng.key(k.addresses).into(),
                Value::str("PENDING"),
            ],
            "W2" => vec![
                self.fresh().into(),
                Value::str("VISA"),
                Value::str("4111-000000000000"),
                Value::str("CARDHOLDER"),
                Value::str("2019-12"),
                Value::Float(100.0),
                Value::str("2017-07-01"),
                self.rng.key(92).into(),
            ],
            "W3" => vec![
                self.rng.key(k.orders).into(),
                self.fresh().into(),
                self.rng.key(k.items).into(),
                self.rng.key(5).into(),
                Value::Float(0.05),
                Value::str("benchmark order line"),
            ],
            "W4" => {
                let c_id = self.fresh();
                vec![
                    c_id.into(),
                    Value::str(format!("NEWUSER{c_id:08}")),
                    Value::str("New"),
                    Value::str("Customer"),
                    self.rng.key(k.addresses).into(),
                    Value::str("555-0000000"),
                    Value::str("new@example.com"),
                    Value::Int(20170101),
                    Value::Int(20170601),
                    Value::Float(0.1),
                    Value::Float(0.0),
                    Value::Float(0.0),
                    Value::str("new customer data"),
                ]
            }
            "W5" => vec![
                self.fresh().into(),
                Value::str("1 New Street"),
                Value::str("NEWCITY"),
                Value::str("TN"),
                Value::str("37201"),
                self.rng.key(92).into(),
            ],
            "W6" => vec![self.fresh().into(), Value::Int(20170701)],
            "W7" => {
                let line = (self.rng.key(k.carts), self.fresh());
                self.live_cart_lines.push(line);
                vec![line.0.into(), line.1.into(), Value::Int(1)]
            }
            "W8" => {
                let (cart, item) = self.pick_cart_line(true);
                vec![cart.into(), item.into()]
            }
            "W9" => vec![
                Value::Float(10.0 + self.rng.below(9_000) as f64 / 100.0),
                Value::Float(5.0 + self.rng.below(9_000) as f64 / 100.0),
                self.rng.key(k.items).into(),
            ],
            "W10" => vec![
                self.rng.key(k.items).into(),
                Value::str("2017-07-01"),
                self.rng.key(k.items).into(),
            ],
            "W11" => vec![
                Value::Int(20170702 + self.rng.below(100) as i64),
                self.rng.key(k.carts).into(),
            ],
            "W12" => {
                let (cart, item) = self.pick_cart_line(false);
                vec![self.rng.key(9).into(), cart.into(), item.into()]
            }
            _ => vec![
                Value::Float(self.rng.below(10_000) as f64 / 100.0),
                Value::Float(self.rng.below(100_000) as f64 / 100.0),
                Value::Int(20170702 + self.rng.below(100) as i64),
                self.rng.key(k.customers).into(),
            ],
        }
    }

    /// A live shopping-cart line, removed from the live set for a delete.
    /// When every line is gone a fresh one is inserted first, so the delete
    /// or update still names an existing row.
    fn pick_cart_line(&mut self, remove: bool) -> (i64, i64) {
        if self.live_cart_lines.is_empty() {
            let line = (self.rng.key(self.keys.carts), self.fresh());
            self.live_cart_lines.push(line);
        }
        let index = self.rng.below(self.live_cart_lines.len() as u64) as usize;
        if remove {
            self.live_cart_lines.swap_remove(index)
        } else {
            self.live_cart_lines[index]
        }
    }
}

fn query_sql(label: &str) -> &'static str {
    tpcw::join_queries()
        .into_iter()
        .find(|q| q.id == label)
        .map(|q| q.sql)
        .unwrap_or_else(|| unreachable!("unknown query {label}"))
}

fn write_sql(label: &str) -> &'static str {
    tpcw::write_statements()
        .into_iter()
        .find(|w| w.id == label)
        .map(|w| w.sql)
        .unwrap_or_else(|| unreachable!("unknown write {label}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys() -> KeySpace {
        KeySpace {
            customers: 500,
            items: 5_000,
            orders: 5_000,
            addresses: 1_000,
            carts: 50,
            cart_lines: (1..=50).map(|c| (c, c * 7 % 5_000 + 1)).collect(),
        }
    }

    fn read_share(ops: &[Op]) -> f64 {
        ops.iter().filter(|op| op.kind == Kind::Read).count() as f64 / ops.len() as f64
    }

    fn digest(ops: &[Op]) -> Vec<String> {
        ops.iter()
            .map(|op| format!("{} {:?}", op.label, op.params))
            .collect()
    }

    #[test]
    fn two_seeds_give_different_sequences_and_one_seed_repeats() {
        for workload in [Workload::Browsing, Workload::Ordering, Workload::Scan] {
            let a = generate(workload, &keys(), 1, 2_000).ops;
            let b = generate(workload, &keys(), 2, 2_000).ops;
            let again = generate(workload, &keys(), 1, 2_000).ops;
            assert_ne!(digest(&a), digest(&b), "{workload:?}");
            assert_eq!(digest(&a), digest(&again), "{workload:?}");
        }
    }

    #[test]
    fn read_write_shares_stay_within_one_percent_of_the_mix() {
        for seed in [1, 7, 99] {
            // Lengths that are not whole decks, so partial decks count too.
            let browsing = generate(Workload::Browsing, &keys(), seed, 1_234).ops;
            assert!((read_share(&browsing) - 0.95).abs() <= 0.01);
            let ordering = generate(Workload::Ordering, &keys(), seed, 1_234).ops;
            assert!((read_share(&ordering) - 0.50).abs() <= 0.01);
            let scan = generate(Workload::Scan, &keys(), seed, 1_234).ops;
            assert!((read_share(&scan) - 0.25).abs() <= 0.01);
        }
    }

    #[test]
    fn browsing_reads_follow_the_weights_and_skew() {
        // 95 whole read decks: 9 025 reads among 9 500 operations.
        let ops = generate(Workload::Browsing, &keys(), 5, 9_500).ops;
        let q6 = ops.iter().filter(|op| op.label == "Q6").count();
        assert_eq!(q6, 20 * 95, "whole decks send the exact weights");
        // Zipf s = 1.1: the hottest item takes far more than a uniform share.
        let mut counts = std::collections::BTreeMap::new();
        for op in ops.iter().filter(|op| op.label == "Q6") {
            *counts.entry(format!("{:?}", op.params)).or_insert(0usize) += 1;
        }
        let hottest = counts.values().copied().max().unwrap_or(0);
        assert!(hottest * 5_000 > q6 * 50, "hottest key {hottest} of {q6}");
    }

    #[test]
    fn op_counts_are_whole_write_decks() {
        for seconds in [1, 10, 15, 20] {
            let ops = Workload::Browsing.op_count(seconds);
            assert_eq!(ops % 260, 0, "20-op mix decks holding 13 whole write decks");
            let writes = generate(Workload::Browsing, &keys(), 9, ops)
                .ops
                .iter()
                .filter(|op| op.label == "W8")
                .count();
            assert_eq!(writes * 260, ops, "each write exactly once per write deck");
            assert_eq!(Workload::Ordering.op_count(seconds) % 26, 0);
            assert_eq!(Workload::Scan.op_count(seconds) % 4, 0);
        }
        assert_eq!(Workload::Ordering.op_count(10), 6_006);
    }

    #[test]
    fn inserts_get_fresh_keys_and_cart_line_writes_name_live_lines() {
        let inputs = generate(Workload::Ordering, &keys(), 3, 5_000);
        let mut live: std::collections::BTreeSet<(i64, i64)> =
            keys().cart_lines.into_iter().collect();
        let mut fresh = std::collections::BTreeSet::new();
        for op in inputs.warm_up.iter().chain(&inputs.ops) {
            let int = |i: usize| op.params[i].as_int().unwrap_or(-1);
            match op.label {
                "W1" | "W2" | "W4" | "W5" | "W6" => assert!(fresh.insert(int(0))),
                "W3" => assert!(fresh.insert(int(1))),
                "W7" => {
                    assert!(fresh.insert(int(1)));
                    live.insert((int(0), int(1)));
                }
                "W8" => assert!(live.remove(&(int(0), int(1))), "delete of a live line"),
                "W12" => assert!(live.contains(&(int(1), int(2))), "update of a live line"),
                _ => {}
            }
        }
        assert!(fresh.iter().all(|&k| k > FRESH_BASE));
    }
}
