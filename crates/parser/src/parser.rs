//! Recursive-descent parser for the for-MATLANG surface syntax.

use crate::lexer::{tokenize, LexError, Token};
use matlang_core::{Dim, Expr, MatrixType};
use std::fmt;

/// Errors produced while parsing.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// Tokenization failed.
    Lex(LexError),
    /// The input ended unexpectedly.
    UnexpectedEnd,
    /// An unexpected token was encountered.
    UnexpectedToken {
        /// The token found.
        found: String,
        /// What the parser expected.
        expected: &'static str,
    },
    /// Trailing tokens remained after a complete expression.
    TrailingInput {
        /// The first trailing token.
        found: String,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Lex(e) => write!(f, "lexical error: {e}"),
            ParseError::UnexpectedEnd => write!(f, "unexpected end of input"),
            ParseError::UnexpectedToken { found, expected } => {
                write!(f, "unexpected token `{found}`, expected {expected}")
            }
            ParseError::TrailingInput { found } => {
                write!(f, "trailing input starting at `{found}`")
            }
        }
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError::Lex(e)
    }
}

/// Parses a complete for-MATLANG expression.
pub fn parse(input: &str) -> Result<Expr, ParseError> {
    let mut tokens = tokenize(input)?;
    tokens.reverse();
    let mut parser = Parser { rest: tokens };
    let expr = parser.expression()?;
    if let Some(token) = parser.peek() {
        return Err(ParseError::TrailingInput {
            found: token.to_string(),
        });
    }
    Ok(expr)
}

/// The forms a parenthesised expression can take, told apart by its first
/// token.
enum Form {
    Const,
    Let,
    For,
    Loop,
    Binary,
}

struct Parser {
    /// The tokens not yet consumed, last first: each is moved out once.
    rest: Vec<Token>,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.rest.last()
    }

    fn next(&mut self) -> Result<Token, ParseError> {
        self.rest.pop().ok_or(ParseError::UnexpectedEnd)
    }

    fn expect(&mut self, token: Token, expected: &'static str) -> Result<(), ParseError> {
        let found = self.next()?;
        if found == token {
            Ok(())
        } else {
            Err(ParseError::UnexpectedToken {
                found: found.to_string(),
                expected,
            })
        }
    }

    fn ident(&mut self, expected: &'static str) -> Result<String, ParseError> {
        match self.next()? {
            Token::Ident(name) => Ok(name),
            other => Err(ParseError::UnexpectedToken {
                found: other.to_string(),
                expected,
            }),
        }
    }

    fn expression(&mut self) -> Result<Expr, ParseError> {
        match self.next()? {
            Token::Ident(name) => self.ident_expression(name),
            Token::LParen => self.parenthesised(),
            other => Err(ParseError::UnexpectedToken {
                found: other.to_string(),
                expected: "an identifier or `(`",
            }),
        }
    }

    fn ident_expression(&mut self, name: String) -> Result<Expr, ParseError> {
        match name.as_str() {
            "transpose" | "ones" | "diag" => {
                self.expect(Token::LParen, "`(`")?;
                let inner = self.expression()?;
                self.expect(Token::RParen, "`)`")?;
                Ok(match name.as_str() {
                    "transpose" => inner.t(),
                    "ones" => inner.ones(),
                    _ => inner.diag(),
                })
            }
            "apply" => {
                self.expect(Token::LBracket, "`[`")?;
                let function = self.ident("a function name")?;
                self.expect(Token::RBracket, "`]`")?;
                self.expect(Token::LParen, "`(`")?;
                let mut args = Vec::new();
                if self.peek() != Some(&Token::RParen) {
                    loop {
                        args.push(self.expression()?);
                        match self.next()? {
                            Token::Comma => continue,
                            Token::RParen => break,
                            other => {
                                return Err(ParseError::UnexpectedToken {
                                    found: other.to_string(),
                                    expected: "`,` or `)`",
                                })
                            }
                        }
                    }
                } else {
                    self.expect(Token::RParen, "`)`")?;
                }
                Ok(Expr::Apply(function, args))
            }
            _ => Ok(Expr::var(name)),
        }
    }

    fn parenthesised(&mut self) -> Result<Expr, ParseError> {
        let form = match self.peek() {
            Some(Token::Ident(keyword)) => match keyword.as_str() {
                "const" => Form::Const,
                "let" => Form::Let,
                "for" => Form::For,
                "sum" | "hprod" | "mprod" => Form::Loop,
                _ => Form::Binary,
            },
            _ => Form::Binary,
        };
        match form {
            Form::Const => {
                self.next()?;
                let value = match self.next()? {
                    Token::Number(v) => v,
                    other => {
                        return Err(ParseError::UnexpectedToken {
                            found: other.to_string(),
                            expected: "a number",
                        })
                    }
                };
                self.expect(Token::RParen, "`)`")?;
                Ok(Expr::lit(value))
            }
            Form::Let => {
                self.next()?;
                let var = self.ident("a variable name")?;
                self.expect(Token::Equals, "`=`")?;
                let value = self.expression()?;
                match self.next()? {
                    Token::Ident(kw) if kw == "in" => {}
                    other => {
                        return Err(ParseError::UnexpectedToken {
                            found: other.to_string(),
                            expected: "`in`",
                        })
                    }
                }
                let body = self.expression()?;
                self.expect(Token::RParen, "`)`")?;
                Ok(Expr::let_in(var, value, body))
            }
            Form::For => {
                self.next()?;
                let var = self.ident("the loop vector variable")?;
                self.expect(Token::Colon, "`:`")?;
                let var_dim = self.ident("the loop dimension symbol")?;
                self.expect(Token::Comma, "`,`")?;
                let acc = self.ident("the accumulator variable")?;
                self.expect(Token::Colon, "`:`")?;
                self.expect(Token::LBracket, "`[`")?;
                let rows = self.dimension()?;
                self.expect(Token::Comma, "`,`")?;
                let cols = self.dimension()?;
                self.expect(Token::RBracket, "`]`")?;
                let init = if self.peek() == Some(&Token::Equals) {
                    self.next()?;
                    Some(self.expression()?)
                } else {
                    None
                };
                self.expect(Token::Dot, "`.`")?;
                let body = self.expression()?;
                self.expect(Token::RParen, "`)`")?;
                let acc_type = MatrixType::new(rows, cols);
                Ok(match init {
                    Some(init) => Expr::for_init(var, var_dim, acc, acc_type, init, body),
                    None => Expr::for_loop(var, var_dim, acc, acc_type, body),
                })
            }
            Form::Loop => {
                let keyword = self.ident("a loop keyword")?;
                let var = self.ident("the loop vector variable")?;
                self.expect(Token::Colon, "`:`")?;
                let var_dim = self.ident("the loop dimension symbol")?;
                self.expect(Token::Dot, "`.`")?;
                let body = self.expression()?;
                self.expect(Token::RParen, "`)`")?;
                Ok(match keyword.as_str() {
                    "sum" => Expr::sum(var, var_dim, body),
                    "hprod" => Expr::hprod(var, var_dim, body),
                    _ => Expr::mprod(var, var_dim, body),
                })
            }
            Form::Binary => {
                // A parenthesised binary operation.
                let left = self.expression()?;
                let op = self.next()?;
                let right = self.expression()?;
                self.expect(Token::RParen, "`)`")?;
                match op {
                    Token::Star => Ok(left.mm(right)),
                    Token::Plus => Ok(left.add(right)),
                    Token::DotStar => Ok(left.smul(right)),
                    Token::StarStar => Ok(left.had(right)),
                    other => Err(ParseError::UnexpectedToken {
                        found: other.to_string(),
                        expected: "a binary operator (`*`, `+`, `.*`, `**`)",
                    }),
                }
            }
        }
    }

    // The `v == 1.0` guard stays a guard: clippy's suggested float-literal
    // pattern is itself linted (illegal_floating_point_literal_pattern).
    #[allow(clippy::redundant_guards)]
    fn dimension(&mut self) -> Result<Dim, ParseError> {
        match self.next()? {
            Token::Number(v) if v == 1.0 => Ok(Dim::One),
            Token::Ident(name) => Ok(Dim::sym(name)),
            other => Err(ParseError::UnexpectedToken {
                found: other.to_string(),
                expected: "a size symbol or `1`",
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_variables_and_literals() {
        assert_eq!(parse("A").unwrap(), Expr::var("A"));
        assert_eq!(parse("(const 3)").unwrap(), Expr::lit(3.0));
        assert_eq!(parse("(const -1.5)").unwrap(), Expr::lit(-1.5));
    }

    #[test]
    fn parses_unary_and_binary_operators() {
        assert_eq!(parse("transpose(A)").unwrap(), Expr::var("A").t());
        assert_eq!(parse("ones(A)").unwrap(), Expr::var("A").ones());
        assert_eq!(parse("diag(u)").unwrap(), Expr::var("u").diag());
        assert_eq!(parse("(A * B)").unwrap(), Expr::var("A").mm(Expr::var("B")));
        assert_eq!(
            parse("(A + B)").unwrap(),
            Expr::var("A").add(Expr::var("B"))
        );
        assert_eq!(
            parse("(s .* B)").unwrap(),
            Expr::var("s").smul(Expr::var("B"))
        );
        assert_eq!(
            parse("(A ** B)").unwrap(),
            Expr::var("A").had(Expr::var("B"))
        );
    }

    #[test]
    fn parses_apply_let_and_loops() {
        assert_eq!(
            parse("apply[div](A, B)").unwrap(),
            Expr::apply("div", vec![Expr::var("A"), Expr::var("B")])
        );
        assert_eq!(parse("apply[f]()").unwrap(), Expr::apply("f", vec![]));
        assert_eq!(
            parse("(let T = (A * A) in (T + T))").unwrap(),
            Expr::let_in(
                "T",
                Expr::var("A").mm(Expr::var("A")),
                Expr::var("T").add(Expr::var("T"))
            )
        );
        assert_eq!(
            parse("(sum v:n . (v * transpose(v)))").unwrap(),
            Expr::sum("v", "n", Expr::var("v").mm(Expr::var("v").t()))
        );
        assert_eq!(
            parse("(for v:n, X:[n,1] . (X + v))").unwrap(),
            Expr::for_loop(
                "v",
                "n",
                "X",
                MatrixType::vector("n"),
                Expr::var("X").add(Expr::var("v"))
            )
        );
        assert_eq!(
            parse("(for v:n, X:[n,n] = A . (X * A))").unwrap(),
            Expr::for_init(
                "v",
                "n",
                "X",
                MatrixType::square("n"),
                Expr::var("A"),
                Expr::var("X").mm(Expr::var("A"))
            )
        );
    }

    #[test]
    fn reports_useful_errors() {
        assert!(matches!(parse(""), Err(ParseError::UnexpectedEnd)));
        assert!(matches!(
            parse("A B"),
            Err(ParseError::TrailingInput { .. })
        ));
        assert!(matches!(parse("(A ?"), Err(ParseError::Lex(_))));
        assert!(matches!(
            parse("(A - B)"),
            Err(ParseError::Lex(_) | ParseError::UnexpectedToken { .. })
        ));
        assert!(matches!(
            parse("(const x)"),
            Err(ParseError::UnexpectedToken { .. })
        ));
        assert!(matches!(
            parse("(for v:n, X:[n,2] . X)"),
            Err(ParseError::UnexpectedToken { .. })
        ));
        assert!(matches!(
            parse("(let T = A by T)"),
            Err(ParseError::UnexpectedToken { .. })
        ));
        for e in [
            ParseError::UnexpectedEnd.to_string(),
            ParseError::TrailingInput { found: "x".into() }.to_string(),
            ParseError::UnexpectedToken {
                found: "x".into(),
                expected: "y",
            }
            .to_string(),
            ParseError::Lex(LexError::BadNumber { text: "-".into() }).to_string(),
        ] {
            assert!(!e.is_empty());
        }
    }

    #[test]
    fn nested_expressions_parse() {
        let text = "((transpose(A) * B) + ((const 2) .* diag(ones(A))))";
        let expected = Expr::var("A")
            .t()
            .mm(Expr::var("B"))
            .add(Expr::lit(2.0).smul(Expr::var("A").ones().diag()));
        assert_eq!(parse(text).unwrap(), expected);
    }
}
