//! A per-file syntactic model for the cross-file concurrency passes.
//!
//! The lexer gives a token stream; this module raises it to the level the
//! lock-order graph and the hot-path lints need, without becoming a Rust
//! parser:
//!
//! * **lock fields** — struct fields (and non-test `static` items) whose
//!   type mentions `Mutex`/`RankedMutex`, named `Struct.field`;
//! * **fn items** — name plus body token extent, brace-matched;
//! * **acquisition sites** — `recv.lock()` and `lock_or_recover(&….field)`
//!   calls, each with the field name as written, the bound guard name (if
//!   `let`-bound), and a conservative guard-scope extent: to the end of
//!   the enclosing block (or an explicit `drop(guard)`), or to the end of
//!   the statement for an unbound temporary;
//! * **call sites**, **condvar-wait sites**, **blocking-I/O sites**, and
//!   **hot parallel-region extents** (closures passed to the `ExecPlan`
//!   `map*_mut`/`for_each_shared` family or `spawn`, plus the bodies of
//!   smoother/matvec-named functions).
//!
//! Everything here is an approximation with a stated bias: guard scopes
//! are over-approximated (a guard is assumed live to the end of its
//! block), while name resolution is under-approximated (an acquisition
//! whose receiver does not name a known lock field is dropped rather than
//! guessed). The graph pass documents the consequences.

use crate::lexer::{Lexed, Token, TokenKind};

/// A struct field (or static item) of `Mutex`/`RankedMutex` type.
#[derive(Debug, Clone)]
pub struct LockField {
    /// Declaring struct, or `""` for a `static` item.
    pub owner: String,
    pub field: String,
    /// 1-based declaration line.
    pub line: usize,
}

impl LockField {
    /// The display/graph-node name: `Struct.field`, or the bare static
    /// name.
    #[must_use]
    pub fn qualified(&self) -> String {
        if self.owner.is_empty() {
            self.field.clone()
        } else {
            format!("{}.{}", self.owner, self.field)
        }
    }
}

/// One `fn` item with a body.
#[derive(Debug, Clone)]
pub struct FnItem {
    pub name: String,
    pub line: usize,
    /// Token index of the body's `{`.
    pub body_start: usize,
    /// Token index of the matching `}`.
    pub body_end: usize,
}

/// One lock-acquisition site.
#[derive(Debug, Clone)]
pub struct Acquisition {
    /// Token index of the `lock` / `lock_or_recover` identifier.
    pub token: usize,
    pub line: usize,
    /// The field name as written at the site (resolution to a
    /// [`LockField`] happens in the workspace pass).
    pub field: String,
    /// Guard binding name when `let`-bound to a single identifier.
    pub guard: Option<String>,
    /// Exclusive token index where the guard is last considered live.
    pub scope_end: usize,
}

/// One call site `name(` inside some fn body.
#[derive(Debug, Clone)]
pub struct CallSite {
    pub token: usize,
    pub line: usize,
    pub callee: String,
}

/// One `.wait(…)` / `.wait_timeout(…)` / `.wait_while(…)` site.
#[derive(Debug, Clone)]
pub struct WaitSite {
    pub token: usize,
    pub line: usize,
    /// Identifiers that legitimately participate in the wait: the
    /// receiver chain plus every identifier inside the argument list.
    /// A live guard named by none of these is held *across* the wait.
    pub involved: Vec<String>,
}

/// One blocking-I/O site (TCP connect/read/write/flush or an HTTP client
/// round trip).
#[derive(Debug, Clone)]
pub struct IoSite {
    pub token: usize,
    pub line: usize,
    pub what: String,
}

/// A hot-region token extent: a closure argument list passed to a
/// parallel-region method, or the body of a smoother/matvec-named fn.
#[derive(Debug, Clone)]
pub struct HotRegion {
    pub start: usize,
    pub end: usize,
    /// What made it hot (for diagnostics): the region method or fn name.
    pub via: String,
}

/// The per-file model.
#[derive(Debug, Default)]
pub struct FileModel {
    pub lock_fields: Vec<LockField>,
    pub fns: Vec<FnItem>,
    pub acquisitions: Vec<Acquisition>,
    pub calls: Vec<CallSite>,
    pub waits: Vec<WaitSite>,
    pub io_sites: Vec<IoSite>,
    pub hot_regions: Vec<HotRegion>,
}

/// Parallel-region methods whose closure argument is a hot region.
const HOT_REGION_METHODS: &[&str] = &[
    "map_mut",
    "map_mut_slabs",
    "map3_mut",
    "for_each_shared",
    "spawn",
];

/// Condvar blocking methods.
const WAIT_METHODS: &[&str] = &["wait", "wait_timeout", "wait_while"];

/// Blocking-I/O method names (TcpStream / HttpClient surface).
const IO_METHODS: &[&str] = &[
    "write_all",
    "read",
    "read_exact",
    "read_to_end",
    "flush",
    "connect",
    "request",
];

/// Keywords that look like calls (`if (…)` never lexes that way in Rust,
/// but `matches!`-style macro args and `return (x)` do).
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "fn", "let", "move", "in", "as",
];

/// Builds the model for one lexed file.
#[must_use]
pub fn build(lexed: &Lexed) -> FileModel {
    let tokens = &lexed.tokens;
    let brace = depth_profile(tokens, "{", "}");
    let paren = depth_profile(tokens, "(", ")");
    let mut model = FileModel::default();
    scan_lock_fields(tokens, &brace, &mut model);
    scan_fns(tokens, &brace, &mut model);
    scan_sites(tokens, &brace, &paren, &mut model);
    hot_fn_bodies(&mut model);
    // A guard can never outlive the fn it is taken in; clamping here
    // keeps tail-expression temporaries (no trailing `;` to anchor on)
    // from leaking their scope into the next item.
    for a in &mut model.acquisitions {
        for f in &model.fns {
            if a.token > f.body_start && a.token < f.body_end {
                a.scope_end = a.scope_end.min(f.body_end);
            }
        }
    }
    model
}

/// `profile[i]` = nesting depth *before* token `i` for the given
/// open/close pair. The matching close for an open at `i` (depth `d`) is
/// the first close token `j > i` with `profile[j] == d + 1`.
fn depth_profile(tokens: &[Token], open: &str, close: &str) -> Vec<i32> {
    let mut depth = 0_i32;
    let mut out = Vec::with_capacity(tokens.len() + 1);
    for t in tokens {
        out.push(depth);
        if t.kind == TokenKind::Punct {
            if t.text == open {
                depth += 1;
            } else if t.text == close {
                depth -= 1;
            }
        }
    }
    out.push(depth);
    out
}

/// First index `j > i` holding `close` at `profile[j] == profile[i] + 1`
/// (the matching close for an open at `i`); falls back to the last token.
fn matching_close(tokens: &[Token], profile: &[i32], i: usize, close: &str) -> usize {
    let want = profile[i] + 1;
    for (j, t) in tokens.iter().enumerate().skip(i + 1) {
        if t.text == close && profile[j] == want {
            return j;
        }
    }
    tokens.len().saturating_sub(1)
}

fn ident(t: &Token) -> Option<&str> {
    (t.kind == TokenKind::Ident).then_some(t.text.as_str())
}

fn scan_lock_fields(tokens: &[Token], brace: &[i32], model: &mut FileModel) {
    let mut i = 0;
    while i < tokens.len() {
        // `struct Name … { field: Type, … }` — fields are the top-level
        // comma-separated segments; a field is a lock field when its type
        // tokens mention Mutex/RankedMutex. The RankedMutex wrapper's own
        // inner field is still recorded; same-file resolution keeps it
        // from shadowing anything (see the graph pass).
        if ident(&tokens[i]) == Some("struct") {
            if let Some(name) = tokens.get(i + 1).and_then(ident) {
                let name = name.to_string();
                // Find the item's `{` (tuple/unit structs end at `;`).
                let mut j = i + 2;
                let item_depth = brace[i];
                while j < tokens.len() {
                    if tokens[j].text == ";" && brace[j] == item_depth {
                        break;
                    }
                    if tokens[j].text == "{" && brace[j] == item_depth {
                        let end = matching_close(tokens, brace, j, "}");
                        collect_struct_fields(tokens, brace, j, end, &name, model);
                        break;
                    }
                    j += 1;
                }
                i = j;
            }
        } else if ident(&tokens[i]) == Some("static") {
            // `static NAME: Mutex<…> = …;`
            if let Some(name) = tokens.get(i + 1).and_then(ident) {
                let mut j = i + 2;
                let mut is_lock = false;
                while j < tokens.len() && tokens[j].text != ";" && tokens[j].text != "=" {
                    if matches!(ident(&tokens[j]), Some("Mutex" | "RankedMutex")) {
                        is_lock = true;
                    }
                    j += 1;
                }
                if is_lock {
                    model.lock_fields.push(LockField {
                        owner: String::new(),
                        field: name.to_string(),
                        line: tokens[i].line,
                    });
                }
            }
        }
        i += 1;
    }
}

fn collect_struct_fields(
    tokens: &[Token],
    brace: &[i32],
    open: usize,
    close: usize,
    owner: &str,
    model: &mut FileModel,
) {
    let field_depth = brace[open] + 1;
    let mut seg_start = open + 1;
    let mut k = open + 1;
    while k <= close {
        let at_end = k == close;
        if at_end || (tokens[k].text == "," && brace[k] == field_depth) {
            let seg = &tokens[seg_start..k];
            // Field name: the identifier immediately before the first `:`
            // at field depth (skips `pub`, `pub(crate)`, attributes).
            let colon = seg.iter().position(|t| t.text == ":");
            if let Some(c) = colon {
                let name = c.checked_sub(1).and_then(|p| ident(&seg[p]));
                let is_lock = seg[c..]
                    .iter()
                    .any(|t| matches!(ident(t), Some("Mutex" | "RankedMutex")));
                if let (Some(name), true) = (name, is_lock) {
                    model.lock_fields.push(LockField {
                        owner: owner.to_string(),
                        field: name.to_string(),
                        line: seg[c].line,
                    });
                }
            }
            seg_start = k + 1;
        }
        k += 1;
    }
}

fn scan_fns(tokens: &[Token], brace: &[i32], model: &mut FileModel) {
    for i in 0..tokens.len() {
        if ident(&tokens[i]) != Some("fn") {
            continue;
        }
        // `fn` in fn-pointer types is followed by `(`, not a name.
        let Some(name) = tokens.get(i + 1).and_then(ident) else {
            continue;
        };
        let item_depth = brace[i];
        let mut j = i + 2;
        let mut body = None;
        while j < tokens.len() {
            if brace[j] == item_depth {
                if tokens[j].text == ";" {
                    break; // trait-method declaration, no body
                }
                if tokens[j].text == "{" {
                    body = Some(j);
                    break;
                }
            }
            j += 1;
        }
        if let Some(start) = body {
            model.fns.push(FnItem {
                name: name.to_string(),
                line: tokens[i].line,
                body_start: start,
                body_end: matching_close(tokens, brace, start, "}"),
            });
        }
    }
}

fn scan_sites(tokens: &[Token], brace: &[i32], paren: &[i32], model: &mut FileModel) {
    for i in 0..tokens.len() {
        let Some(name) = ident(&tokens[i]) else {
            continue;
        };
        let next_is_paren = tokens.get(i + 1).is_some_and(|t| t.text == "(");
        let prev_dot = i > 0 && tokens[i - 1].text == ".";
        let prev_path = i > 0 && tokens[i - 1].text == "::";

        if next_is_paren && prev_dot && name == "lock" {
            // `recv.lock()` — receiver is the identifier before the dot.
            if let Some(field) = i.checked_sub(2).and_then(|p| ident(&tokens[p])) {
                push_acquisition(tokens, brace, i, field.to_string(), model);
            }
        } else if next_is_paren && !prev_dot && !prev_path && name == "lock_or_recover" {
            // `lock_or_recover(&self.field)` — the field is the last
            // identifier of the first argument.
            let close = matching_close(tokens, paren, i + 1, ")");
            let first_arg_end = tokens
                .iter()
                .enumerate()
                .take(close)
                .skip(i + 2)
                .find(|(j, t)| t.text == "," && paren[*j] == paren[i + 1] + 1)
                .map_or(close, |(j, _)| j);
            let field = tokens[i + 2..first_arg_end]
                .iter()
                .rev()
                .find_map(|t| ident(t));
            if let Some(field) = field {
                push_acquisition(tokens, brace, i, field.to_string(), model);
            }
        }

        if next_is_paren && prev_dot && WAIT_METHODS.contains(&name) {
            let close = matching_close(tokens, paren, i + 1, ")");
            let mut involved: Vec<String> = tokens[i + 2..close]
                .iter()
                .filter_map(|t| ident(t).map(str::to_string))
                .collect();
            if let Some(recv) = i.checked_sub(2).and_then(|p| ident(&tokens[p])) {
                involved.push(recv.to_string());
            }
            model.waits.push(WaitSite {
                token: i,
                line: tokens[i].line,
                involved,
            });
        }

        if next_is_paren && (prev_dot || prev_path) && IO_METHODS.contains(&name) {
            model.io_sites.push(IoSite {
                token: i,
                line: tokens[i].line,
                what: name.to_string(),
            });
        }

        if next_is_paren && prev_dot && HOT_REGION_METHODS.contains(&name) {
            model.hot_regions.push(HotRegion {
                start: i + 1,
                end: matching_close(tokens, paren, i + 1, ")"),
                via: name.to_string(),
            });
        }

        if next_is_paren && !prev_dot && !NON_CALL_KEYWORDS.contains(&name) {
            // Free/assoc-function call (method calls go through the deny
            // list anyway; recording only the path tail keeps resolution
            // honest: `Type::helper(…)` resolves by `helper`).
            model.calls.push(CallSite {
                token: i,
                line: tokens[i].line,
                callee: name.to_string(),
            });
        } else if next_is_paren && prev_dot {
            model.calls.push(CallSite {
                token: i,
                line: tokens[i].line,
                callee: name.to_string(),
            });
        }
    }
}

/// Walk back from an acquisition to its statement head: if the statement
/// is a `let`, the guard lives to the end of the enclosing block (or an
/// explicit `drop(name)`); otherwise it is a temporary that dies at the
/// statement's `;`.
fn push_acquisition(
    tokens: &[Token],
    brace: &[i32],
    site: usize,
    field: String,
    model: &mut FileModel,
) {
    let mut guard: Option<String> = None;
    let mut let_at: Option<usize> = None;
    let mut j = site;
    for _ in 0..24 {
        let Some(prev) = j.checked_sub(1) else { break };
        j = prev;
        let t = &tokens[j];
        let passable = t.kind == TokenKind::Ident
            || matches!(t.text.as_str(), "." | "::" | "=" | "&" | "*" | "(" | ")");
        if ident(t) == Some("let") {
            let_at = Some(j);
            // Bound name: first identifier after `let`, skipping `mut`;
            // a `(` pattern is a tuple — no single guard name, but the
            // binding still scopes to the block.
            let mut k = j + 1;
            if ident(&tokens[k]) == Some("mut") {
                k += 1;
            }
            guard = ident(&tokens[k]).map(str::to_string);
            break;
        }
        if !passable && !matches!(ident(t), Some("mut" | "match")) {
            break;
        }
    }

    let scope_end = match let_at {
        Some(l) => {
            // End of the enclosing block: the `}` that returns to the
            // depth the `let` sits at.
            let block_depth = brace[l];
            let mut end = tokens.len();
            for (k, t) in tokens.iter().enumerate().skip(site + 1) {
                if t.text == "}" && brace[k] == block_depth {
                    end = k;
                    break;
                }
            }
            // An explicit `drop(guard)` ends the scope earlier.
            if let Some(g) = &guard {
                for k in site + 1..end.min(tokens.len().saturating_sub(3)) {
                    if ident(&tokens[k]) == Some("drop")
                        && tokens[k + 1].text == "("
                        && ident(&tokens[k + 2]) == Some(g.as_str())
                        && tokens[k + 3].text == ")"
                    {
                        end = k;
                        break;
                    }
                }
            }
            end
        }
        None => {
            // Temporary: next `;` at the statement's brace depth.
            let stmt_depth = brace[site];
            tokens
                .iter()
                .enumerate()
                .skip(site + 1)
                .find(|(k, t)| t.text == ";" && brace[*k] <= stmt_depth)
                .map_or(tokens.len(), |(k, _)| k)
        }
    };

    model.acquisitions.push(Acquisition {
        token: site,
        line: tokens[site].line,
        field,
        guard,
        scope_end,
    });
}

/// Bodies of smoother/matvec-named fns are hot regions in their own
/// right (`smooth`, `sor_sweep`, `matvec_range`, …).
fn hot_fn_bodies(model: &mut FileModel) {
    let hot: Vec<HotRegion> = model
        .fns
        .iter()
        .filter(|f| {
            f.name.contains("matvec") || f.name.contains("smooth") || f.name.ends_with("_sweep")
        })
        .map(|f| HotRegion {
            start: f.body_start,
            end: f.body_end,
            via: f.name.clone(),
        })
        .collect();
    model.hot_regions.extend(hot);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn lock_fields_and_statics_are_discovered() {
        let src = "pub struct Q<T> { inner: Mutex<Inner<T>>, cap: usize }\n\
                   static GLOBAL: Mutex<u32> = Mutex::new(0);\n\
                   struct Plain { n: usize }";
        let m = build(&lex(src));
        let names: Vec<String> = m.lock_fields.iter().map(LockField::qualified).collect();
        assert_eq!(names, vec!["Q.inner".to_string(), "GLOBAL".to_string()]);
    }

    #[test]
    fn fn_bodies_are_brace_matched() {
        let src = "fn outer() { if x { y(); } }\nfn decl();\nfn tail() -> u32 { 7 }";
        let m = build(&lex(src));
        let names: Vec<&str> = m.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "tail"]);
    }

    #[test]
    fn let_bound_guard_scopes_to_block_end() {
        let src = "fn f(&self) {\n    let mut g = self.state.lock().unwrap();\n    g.push(1);\n}";
        let m = build(&lex(src));
        assert_eq!(m.acquisitions.len(), 1);
        let a = &m.acquisitions[0];
        assert_eq!(a.field, "state");
        assert_eq!(a.guard.as_deref(), Some("g"));
        // Scope runs to the fn's closing brace (past the push call).
        assert!(m
            .calls
            .iter()
            .any(|c| c.callee == "push" && c.token < a.scope_end));
    }

    #[test]
    fn explicit_drop_ends_the_guard_scope() {
        let src = "fn f(&self) {\n    let g = self.state.lock().unwrap();\n    drop(g);\n    self.other.lock().unwrap();\n}";
        let m = build(&lex(src));
        let first = &m.acquisitions[0];
        let second = &m.acquisitions[1];
        assert!(
            first.scope_end < second.token,
            "drop released before the second lock"
        );
    }

    #[test]
    fn temporary_guard_dies_at_the_statement() {
        let src = "fn f(&self) {\n    self.state.lock().unwrap().push(1);\n    self.other.lock().unwrap();\n}";
        let m = build(&lex(src));
        let first = &m.acquisitions[0];
        assert!(first.guard.is_none());
        assert!(first.scope_end < m.acquisitions[1].token);
    }

    #[test]
    fn lock_or_recover_sites_resolve_their_field_argument() {
        let src = "fn f(&self) { let g = lock_or_recover(&self.table); g.get(); }";
        let m = build(&lex(src));
        assert_eq!(m.acquisitions.len(), 1);
        assert_eq!(m.acquisitions[0].field, "table");
        assert_eq!(m.acquisitions[0].guard.as_deref(), Some("g"));
    }

    #[test]
    fn wait_sites_collect_involved_identifiers() {
        let src = "fn f(&self) { inner = self.cv.wait(inner).unwrap(); }";
        let m = build(&lex(src));
        assert_eq!(m.waits.len(), 1);
        assert!(m.waits[0].involved.contains(&"inner".to_string()));
        assert!(m.waits[0].involved.contains(&"cv".to_string()));
    }

    #[test]
    fn hot_regions_cover_parallel_closures_and_named_bodies() {
        let src = "fn step(&self, plan: &ExecPlan, x: &mut [f64]) {\n\
                       plan.map_mut(x, |r, c| { helper(r, c); });\n\
                   }\n\
                   fn rb_sweep(&self) { body(); }";
        let m = build(&lex(src));
        assert_eq!(m.hot_regions.len(), 2);
        assert_eq!(m.hot_regions[0].via, "map_mut");
        assert_eq!(m.hot_regions[1].via, "rb_sweep");
    }
}
