//! Tokenizer for the for-MATLANG surface syntax.

use std::fmt;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `,`
    Comma,
    /// `:`
    Colon,
    /// `.` (the loop-body separator)
    Dot,
    /// `=`
    Equals,
    /// `+`
    Plus,
    /// `*` (matrix product)
    Star,
    /// `.*` (scalar product)
    DotStar,
    /// `**` (Hadamard product)
    StarStar,
    /// An identifier or keyword.
    Ident(String),
    /// A numeric literal.
    Number(f64),
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::LBracket => write!(f, "["),
            Token::RBracket => write!(f, "]"),
            Token::Comma => write!(f, ","),
            Token::Colon => write!(f, ":"),
            Token::Dot => write!(f, "."),
            Token::Equals => write!(f, "="),
            Token::Plus => write!(f, "+"),
            Token::Star => write!(f, "*"),
            Token::DotStar => write!(f, ".*"),
            Token::StarStar => write!(f, "**"),
            Token::Ident(s) => write!(f, "{s}"),
            Token::Number(n) => write!(f, "{n}"),
        }
    }
}

/// Errors produced by the tokenizer.
#[derive(Debug, Clone, PartialEq)]
pub enum LexError {
    /// An unexpected character was encountered.
    UnexpectedChar {
        /// The character.
        found: char,
        /// Byte offset in the input.
        position: usize,
    },
    /// A numeric literal could not be parsed.
    BadNumber {
        /// The offending text.
        text: String,
    },
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LexError::UnexpectedChar { found, position } => {
                write!(f, "unexpected character `{found}` at byte {position}")
            }
            LexError::BadNumber { text } => write!(f, "malformed number `{text}`"),
        }
    }
}

impl std::error::Error for LexError {}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

fn number(text: &str) -> Result<Token, LexError> {
    text.parse::<f64>()
        .map(Token::Number)
        .map_err(|_| LexError::BadNumber {
            text: text.to_string(),
        })
}

/// Tokenizes an input string.  Lexing walks the input's bytes; only an
/// identifier may hold non-ASCII characters, so positions are byte
/// offsets throughout.
pub fn tokenize(input: &str) -> Result<Vec<Token>, LexError> {
    let bytes = input.as_bytes();
    let digit_at = |at: usize| bytes.get(at).is_some_and(u8::is_ascii_digit);
    let mut tokens = Vec::new();
    let mut i = 0;
    while let Some(c) = input[i..].chars().next() {
        let (token, end) = match c {
            c if c.is_whitespace() => {
                i += c.len_utf8();
                continue;
            }
            '(' => (Token::LParen, i + 1),
            ')' => (Token::RParen, i + 1),
            '[' => (Token::LBracket, i + 1),
            ']' => (Token::RBracket, i + 1),
            ',' => (Token::Comma, i + 1),
            ':' => (Token::Colon, i + 1),
            '=' => (Token::Equals, i + 1),
            '+' => (Token::Plus, i + 1),
            '*' if bytes.get(i + 1) == Some(&b'*') => (Token::StarStar, i + 2),
            '*' => (Token::Star, i + 1),
            '.' if bytes.get(i + 1) == Some(&b'*') => (Token::DotStar, i + 2),
            '.' => (Token::Dot, i + 1),
            '-' => {
                // Negative numeric literal (only appears after `const`).
                let mut end = i + 1;
                while digit_at(end) || bytes.get(end) == Some(&b'.') {
                    end += 1;
                }
                (number(&input[i..end])?, end)
            }
            c if c.is_ascii_digit() => {
                // Don't swallow the loop-body dot: a `.` that no digit
                // follows is a separator.
                let mut end = i;
                while digit_at(end) || (bytes.get(end) == Some(&b'.') && digit_at(end + 1)) {
                    end += 1;
                }
                (number(&input[i..end])?, end)
            }
            c if is_ident_start(c) => {
                let len = input[i..]
                    .char_indices()
                    .find(|&(_, c)| !is_ident_continue(c))
                    .map_or(input.len() - i, |(at, _)| at);
                (Token::Ident(input[i..i + len].to_string()), i + len)
            }
            other => {
                return Err(LexError::UnexpectedChar {
                    found: other,
                    position: i,
                })
            }
        };
        tokens.push(token);
        i = end;
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_operators_and_identifiers() {
        let tokens = tokenize("(transpose(A) * B_1) + (const -2.5)").unwrap();
        assert_eq!(
            tokens,
            vec![
                Token::LParen,
                Token::Ident("transpose".into()),
                Token::LParen,
                Token::Ident("A".into()),
                Token::RParen,
                Token::Star,
                Token::Ident("B_1".into()),
                Token::RParen,
                Token::Plus,
                Token::LParen,
                Token::Ident("const".into()),
                Token::Number(-2.5),
                Token::RParen,
            ]
        );
    }

    #[test]
    fn distinguishes_star_variants_and_dots() {
        let tokens = tokenize("a ** b .* c * d . e").unwrap();
        assert!(tokens.contains(&Token::StarStar));
        assert!(tokens.contains(&Token::DotStar));
        assert!(tokens.contains(&Token::Star));
        assert!(tokens.contains(&Token::Dot));
    }

    #[test]
    fn numbers_with_decimals_and_loop_dots() {
        let tokens = tokenize("(const 1) . 2.5").unwrap();
        assert_eq!(
            tokens,
            vec![
                Token::LParen,
                Token::Ident("const".into()),
                Token::Number(1.0),
                Token::RParen,
                Token::Dot,
                Token::Number(2.5),
            ]
        );
        // The integer before the loop dot keeps the dot as a separator.
        let tokens = tokenize("1 . v").unwrap();
        assert_eq!(tokens[0], Token::Number(1.0));
        assert_eq!(tokens[1], Token::Dot);
    }

    #[test]
    fn brackets_colons_commas_equals() {
        let tokens = tokenize("X:[a,1] = A").unwrap();
        assert_eq!(
            tokens,
            vec![
                Token::Ident("X".into()),
                Token::Colon,
                Token::LBracket,
                Token::Ident("a".into()),
                Token::Comma,
                Token::Number(1.0),
                Token::RBracket,
                Token::Equals,
                Token::Ident("A".into()),
            ]
        );
    }

    #[test]
    fn rejects_unknown_characters_and_bad_numbers() {
        assert!(matches!(
            tokenize("A ? B"),
            Err(LexError::UnexpectedChar { found: '?', .. })
        ));
        assert!(matches!(tokenize("-"), Err(LexError::BadNumber { .. })));
        assert!(!LexError::BadNumber { text: "x".into() }
            .to_string()
            .is_empty());
        assert!(!LexError::UnexpectedChar {
            found: '?',
            position: 0
        }
        .to_string()
        .is_empty());
    }

    #[test]
    fn unexpected_characters_are_reported_at_their_byte_offset() {
        // `é` is two bytes, so the `?` sits at byte 3 (character 2).
        let err = tokenize("é ?").unwrap_err();
        assert_eq!(
            err,
            LexError::UnexpectedChar {
                found: '?',
                position: 3
            }
        );
        assert_eq!(err.to_string(), "unexpected character `?` at byte 3");
        assert_eq!(tokenize("é").unwrap(), vec![Token::Ident("é".into())]);
    }

    #[test]
    fn tokens_display() {
        for t in [
            Token::LParen,
            Token::RParen,
            Token::LBracket,
            Token::RBracket,
            Token::Comma,
            Token::Colon,
            Token::Dot,
            Token::Equals,
            Token::Plus,
            Token::Star,
            Token::DotStar,
            Token::StarStar,
            Token::Ident("x".into()),
            Token::Number(1.5),
        ] {
            assert!(!t.to_string().is_empty());
        }
    }
}
