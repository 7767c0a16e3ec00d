//! What [`Object`] / [`Array`] write, [`parse_json`] reads back as the
//! same tree: every string escaped, every float finite or `null`, fields
//! in call order, under either spacing and with or without rows.

use dapple_core::json::{parse_json, Array, Json, Object};
use proptest::prelude::*;

/// A value to write; `expect` is the tree it must parse back to.
enum Node {
    U(u64),
    F(f64),
    B(bool),
    Null,
    S(String),
    A(Vec<Node>, bool),
    O(Vec<(String, Node)>),
}

type Draws<'a> = &'a mut dyn Iterator<Item = u32>;

fn pick(draws: Draws, of: u32) -> usize {
    (draws.next().unwrap_or(0) % of) as usize
}

/// Up to five chars, a third of them ones a writer must escape.
fn string(draws: Draws) -> String {
    let special = ['"', '\\', '\n', '\u{1}', '\u{1f}'];
    let plain = |d| char::from_u32(d).unwrap_or('µ');
    let ch = |d: u32| *special.get(d as usize % 15).unwrap_or(&plain(d));
    let len = pick(draws, 6);
    draws.take(len).map(ch).collect()
}

/// Spells a tree out of a stream of draws: each picks a kind, strings
/// and containers take their length from the next. Array items are the
/// kinds [`Array`] writes (numbers and objects); object keys get an
/// index, since the parser rejects duplicates.
fn node(draws: Draws, depth: usize, in_array: bool) -> Node {
    let kinds = if depth == 0 { 3 } else { 4 } + if in_array { 0 } else { 3 };
    match pick(draws, kinds) {
        0 => Node::U([0, 7, u64::MAX][pick(draws, 3)]),
        1 => Node::F(pick(draws, u32::MAX) as f64 / 977.0 - 500.0),
        2 => Node::F([0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY][pick(draws, 5)]),
        3 if depth > 0 => Node::O(object(draws, depth - 1)),
        3 | 4 => Node::S(string(draws)),
        5 => match pick(draws, 3) {
            0 => Node::Null,
            b => Node::B(b == 1),
        },
        _ => {
            let (len, rows) = (pick(draws, 4), pick(draws, 2) == 1);
            let items = (0..len).map(|_| node(draws, depth.saturating_sub(1), true));
            Node::A(items.collect(), rows)
        }
    }
}

fn object(draws: Draws, depth: usize) -> Vec<(String, Node)> {
    let len = pick(draws, 4);
    let field = |i| (format!("{i}{}", string(draws)), node(draws, depth, false));
    (0..len).map(field).collect()
}

impl Node {
    fn expect(&self) -> Json {
        match self {
            Node::U(v) => Json::Num(*v as f64),
            Node::F(v) if v.is_finite() => Json::Num(format!("{v:.6}").parse().unwrap()),
            Node::F(_) | Node::Null => Json::Null,
            Node::B(v) => Json::Bool(*v),
            Node::S(v) => Json::Str(v.clone()),
            Node::A(items, _) => Json::Arr(items.iter().map(Node::expect).collect()),
            Node::O(fields) => {
                let field = |(k, v): &(String, Node)| (k.clone(), v.expect());
                Json::Obj(fields.iter().map(field).collect())
            }
        }
    }
}

fn fields<'a>(o: Object<&'a mut String>, nodes: &[(String, Node)]) -> Object<&'a mut String> {
    nodes.iter().fold(o, |o, (k, v)| match v {
        Node::U(v) => o.u64(k, *v),
        Node::F(v) => o.f64(k, *v),
        Node::B(v) => o.bool(k, *v),
        Node::Null => o.null(k),
        Node::S(v) => o.str(k, v),
        Node::A(v, rows) => o.array(k, |a| items(if *rows { a.rows() } else { a }, v)),
        Node::O(v) => o.object(k, |o| fields(o, v)),
    })
}

fn items<'a>(a: Array<&'a mut String>, nodes: &[Node]) -> Array<&'a mut String> {
    nodes.iter().fold(a, |a, v| match v {
        Node::U(v) => a.u64(*v),
        Node::F(v) => a.f64(*v),
        Node::O(v) => a.object(|o| fields(o, v)),
        _ => unreachable!("not generated inside arrays"),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn written_documents_parse_back_to_the_same_tree(
        draws in proptest::collection::vec(0u32..0x11_0000, 1..120),
        spaced in 0u32..2,
    ) {
        let top = object(&mut draws.into_iter(), 3);
        let mut text = String::new();
        let o = Object::new(&mut text);
        fields(if spaced == 1 { o.spaced() } else { o }, &top).end();
        let parsed = parse_json(&text).map_err(|e| TestCaseError::fail(format!("{e}: {text}")))?;
        prop_assert_eq!(parsed, Node::O(top).expect(), "{}", text);
    }
}
