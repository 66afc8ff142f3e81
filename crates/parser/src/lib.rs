//! A textual surface syntax for for-MATLANG.
//!
//! The grammar accepted here is exactly the fully parenthesised syntax
//! produced by the `Display` implementation of [`matlang_core::Expr`], so
//! that `parse(expr.to_string()) == expr` for every expression (round-trip
//! property, tested below and in the workspace integration tests):
//!
//! ```text
//! e ::= IDENT                         (matrix variable)
//!     | (const NUMBER)                (scalar literal)
//!     | transpose(e) | ones(e) | diag(e)
//!     | (e * e) | (e + e) | (e .* e) | (e ** e)
//!     | apply[IDENT](e, …, e)
//!     | (let IDENT = e in e)
//!     | (for IDENT:IDENT, IDENT:[dim,dim] (= e)? . e)
//!     | (sum IDENT:IDENT . e) | (hprod IDENT:IDENT . e) | (mprod IDENT:IDENT . e)
//! dim ::= 1 | IDENT
//! ```

#![forbid(unsafe_code)]

pub mod lexer;
pub mod parser;

pub use lexer::{tokenize, LexError, Token};
pub use parser::{parse, ParseError};

#[cfg(test)]
mod tests {
    use super::*;
    use matlang_core::{Expr, MatrixType};

    fn roundtrip(expr: &Expr) {
        let text = expr.to_string();
        let parsed = parse(&text).unwrap_or_else(|e| panic!("failed to parse `{text}`: {e}"));
        assert_eq!(&parsed, expr, "round trip failed for `{text}`");
    }

    #[test]
    fn roundtrips_core_operators() {
        roundtrip(&Expr::var("A"));
        roundtrip(&Expr::lit(2.5));
        roundtrip(&Expr::lit(-3.0));
        roundtrip(&Expr::var("A").t());
        roundtrip(&Expr::var("A").ones());
        roundtrip(&Expr::var("u").diag());
        roundtrip(&Expr::var("A").mm(Expr::var("B")));
        roundtrip(&Expr::var("A").add(Expr::var("B")));
        roundtrip(&Expr::lit(2.0).smul(Expr::var("A")));
        roundtrip(&Expr::var("A").had(Expr::var("B")));
        roundtrip(&Expr::apply("div", vec![Expr::var("A"), Expr::var("B")]));
        roundtrip(&Expr::let_in("T", Expr::var("A"), Expr::var("T")));
    }

    #[test]
    fn roundtrips_loops_and_quantifiers() {
        roundtrip(&Expr::sum("v", "n", Expr::var("v").mm(Expr::var("v").t())));
        roundtrip(&Expr::hprod(
            "v",
            "n",
            Expr::var("v").t().mm(Expr::var("A")).mm(Expr::var("v")),
        ));
        roundtrip(&Expr::mprod("v", "n", Expr::var("A")));
        roundtrip(&Expr::for_loop(
            "v",
            "n",
            "X",
            MatrixType::vector("n"),
            Expr::var("X").add(Expr::var("v")),
        ));
        roundtrip(&Expr::for_init(
            "v",
            "n",
            "X",
            MatrixType::square("n"),
            Expr::var("A"),
            Expr::var("X").mm(Expr::var("A")),
        ));
        roundtrip(&Expr::for_loop(
            "v",
            "n",
            "X",
            MatrixType::scalar(),
            Expr::var("X").add(Expr::lit(1.0)),
        ));
    }

    #[test]
    fn roundtrips_paper_algorithms() {
        // The larger generated expressions from the algorithms crate exercise
        // deep nesting; a couple of representative ones are rebuilt here by
        // hand to keep this crate's dependencies minimal.
        let trace = Expr::sum(
            "v",
            "n",
            Expr::var("v").t().mm(Expr::var("A")).mm(Expr::var("v")),
        );
        let nested = Expr::sum(
            "u",
            "n",
            Expr::sum(
                "w",
                "n",
                Expr::var("u")
                    .t()
                    .mm(Expr::var("A"))
                    .mm(Expr::var("w"))
                    .smul(Expr::var("u").mm(Expr::var("w").t())),
            ),
        );
        roundtrip(&trace);
        roundtrip(&nested);
        roundtrip(&trace.add(nested).had(Expr::var("A").ones().diag()));
    }
}
