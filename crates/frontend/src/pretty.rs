//! Pretty-printing of AST nodes back to the surface syntax.
//!
//! Output parses back to an equal program (round-trip property tested in
//! the crate's integration suite) as long as the program contains no
//! constraint literals; constraints render via [`crate::ast::Constraint::describe`]
//! inside `{...}` braces and are for human consumption only.

use gst_common::{Interner, Value};

use crate::ast::{Atom, Literal, Program, Rule, Term};

/// Render a term. Symbolic constants that are not identifier-shaped
/// (spaces, capitals, punctuation) are quoted so output re-parses.
pub fn term(t: &Term, interner: &Interner) -> String {
    match t {
        Term::Var(v) => v.name(interner),
        Term::Const(Value::Sym(s)) => {
            let name = interner.resolve(*s);
            if is_plain_symbol(&name) {
                name.to_string()
            } else {
                quote(&name)
            }
        }
        Term::Const(c) => c.display(interner),
    }
}

/// True when `name` lexes back as a lowercase identifier.
fn is_plain_symbol(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_alphabetic() && c.is_lowercase() => {}
        _ => return false,
    }
    chars.all(|c| c.is_alphanumeric() || c == '_')
}

/// Quote and escape a symbol for the surface syntax.
fn quote(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 2);
    out.push('"');
    for c in name.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Render an atom, e.g. `anc(X, Y)`.
pub fn atom(a: &Atom, interner: &Interner) -> String {
    let name = interner.resolve(a.predicate);
    if a.terms.is_empty() {
        name.to_string()
    } else {
        let args: Vec<String> = a.terms.iter().map(|t| term(t, interner)).collect();
        format!("{}({})", name, args.join(", "))
    }
}

/// Render a body literal. Comparison constraints re-parse; scheme
/// constraints (`h(v) = i`) render inside `{…}` braces for humans only.
pub fn literal(l: &Literal, interner: &Interner) -> String {
    match l {
        Literal::Atom(a) => atom(a, interner),
        Literal::Constraint(c) => {
            let rendered = c.describe(interner);
            if rendered.starts_with("h(") {
                format!("{{{rendered}}}")
            } else {
                rendered
            }
        }
    }
}

/// Render a rule, e.g. `anc(X, Y) :- par(X, Z), anc(Z, Y).`.
pub fn rule(r: &Rule, interner: &Interner) -> String {
    if r.body.is_empty() {
        return format!("{}.", atom(&r.head, interner));
    }
    let body: Vec<String> = r.body.iter().map(|l| literal(l, interner)).collect();
    format!("{} :- {}.", atom(&r.head, interner), body.join(", "))
}

/// Render a whole program, one rule per line.
pub fn program(p: &Program) -> String {
    p.rules
        .iter()
        .map(|r| rule(r, &p.interner))
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    #[test]
    fn renders_ancestor() {
        let unit = parse_program(
            "anc(X,Y) :- par(X,Y).\n\
             anc(X,Y) :- par(X,Z), anc(Z,Y).",
        )
        .unwrap();
        assert_eq!(
            program(&unit.program),
            "anc(X, Y) :- par(X, Y).\nanc(X, Y) :- par(X, Z), anc(Z, Y)."
        );
    }

    #[test]
    fn renders_constants() {
        let unit = parse_program("p(X) :- q(X, alice, 42).").unwrap();
        assert_eq!(program(&unit.program), "p(X) :- q(X, alice, 42).");
    }

    #[test]
    fn renders_zero_arity() {
        let unit = parse_program("go :- ready.").unwrap();
        assert_eq!(program(&unit.program), "go :- ready.");
    }

    #[test]
    fn quotes_non_identifier_symbols() {
        let unit = parse_program(r#"p(X) :- q(X, "John Smith", alice)."#).unwrap();
        assert_eq!(
            program(&unit.program),
            r#"p(X) :- q(X, "John Smith", alice)."#
        );
    }

    #[test]
    fn string_round_trip_with_escapes() {
        let src = "p(X) :- q(X, \"a\\\"b\\nc\").";
        let first = parse_program(src).unwrap();
        let rendered = program(&first.program);
        let second = parse_program(&rendered).unwrap();
        assert_eq!(program(&second.program), rendered);
    }

    #[test]
    fn integer_range_ends_round_trip() {
        let src = "p(X) :- q(X, -9223372036854775808, 9223372036854775807).";
        let first = parse_program(&format!("{src}\nq(1, -9223372036854775808, 0).")).unwrap();
        let rendered = program(&first.program);
        assert_eq!(rendered, src);
        assert_eq!(program(&parse_program(&rendered).unwrap().program), rendered);
    }

    #[test]
    fn round_trips_through_parser() {
        let src = "t(X, Y) :- s(X, Y).\nt(X, Y) :- t(X, Z), e(Z, Y, -3).";
        let first = parse_program(src).unwrap();
        let rendered = program(&first.program);
        let second = parse_program(&rendered).unwrap();
        assert_eq!(program(&second.program), rendered);
        assert_eq!(first.program.rules.len(), second.program.rules.len());
    }
}
