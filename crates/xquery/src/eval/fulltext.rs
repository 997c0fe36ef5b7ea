//! Full-text `ftcontains` evaluation (§3.1 of the paper): tokenisation,
//! phrase matching, `ftand`/`ftor`/`ftnot` composition and the `with
//! stemming` / case / wildcard match options.

use xqib_xdm::{Sequence, XdmResult};

use crate::ast::{FtMatchOptions, FtSelection};
use crate::context::DynamicContext;
use crate::functions::regex::Regex;
use crate::functions::stemmer::{stem, tokenize_words, tokenize_words_cased};

use super::Eval;

/// `source ftcontains selection`: true if any source item's string value
/// matches.
pub(crate) fn eval_ftcontains<E>(
    ctx: &mut DynamicContext,
    source: &E,
    selection: &FtSelection<E>,
    eval: Eval<E>,
) -> XdmResult<Sequence> {
    let items = eval(ctx, source)?;
    // ftcontains is existential over the source sequence
    for item in &items {
        let text = item.string_value(&ctx.store.borrow());
        if selection_matches(ctx, &text, selection, eval)? {
            return Ok(vec![xqib_xdm::Item::boolean(true)]);
        }
    }
    Ok(vec![xqib_xdm::Item::boolean(false)])
}

fn selection_matches<E>(
    ctx: &mut DynamicContext,
    text: &str,
    sel: &FtSelection<E>,
    eval: Eval<E>,
) -> XdmResult<bool> {
    match sel {
        FtSelection::Or(items) => {
            for s in items {
                if selection_matches(ctx, text, s, eval)? {
                    return Ok(true);
                }
            }
            Ok(false)
        }
        FtSelection::And(items) => {
            for s in items {
                if !selection_matches(ctx, text, s, eval)? {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        FtSelection::Not(inner) => Ok(!selection_matches(ctx, text, inner, eval)?),
        FtSelection::Words { expr, options } => {
            let v = eval(ctx, expr)?;
            // each item is a phrase; any phrase matching suffices
            for item in &v {
                let phrase = item.string_value(&ctx.store.borrow());
                if phrase_matches(text, &phrase, options) {
                    return Ok(true);
                }
            }
            Ok(false)
        }
    }
}

/// Does `text` contain the token phrase `phrase` under the given options?
pub fn phrase_matches(text: &str, phrase: &str, opts: &FtMatchOptions) -> bool {
    let tokenize_phrase = |s: &str| -> Vec<String> {
        if opts.wildcards {
            // keep wildcard metacharacters intact in query tokens
            s.split_whitespace()
                .map(|w| {
                    if opts.case_sensitive {
                        w.to_string()
                    } else {
                        w.to_lowercase()
                    }
                })
                .collect()
        } else if opts.case_sensitive {
            tokenize_words_cased(s)
        } else {
            tokenize_words(s)
        }
    };
    let (text_tokens, phrase_tokens): (Vec<String>, Vec<String>) = (
        if opts.case_sensitive {
            tokenize_words_cased(text)
        } else {
            tokenize_words(text)
        },
        tokenize_phrase(phrase),
    );
    if phrase_tokens.is_empty() {
        return false;
    }
    let norm = |w: &str| -> String {
        if opts.stemming {
            stem(&w.to_lowercase())
        } else {
            w.to_string()
        }
    };
    let text_norm: Vec<String> = text_tokens.iter().map(|w| norm(w)).collect();
    let phrase_norm: Vec<String> = phrase_tokens.iter().map(|w| norm(w)).collect();

    let token_eq = |t: &str, p: &str| -> bool {
        if opts.wildcards && p.contains(['*', '?', '.']) {
            // FT wildcard syntax: `.` any char, `.*` any run, `*` → any run
            let pat = p.replace("*", ".*").replace('?', ".?");
            match Regex::compile(&format!("^{pat}$")) {
                Ok(re) => re.is_match(t),
                Err(_) => t == p,
            }
        } else {
            t == p
        }
    };

    if phrase_norm.len() == 1 {
        return text_norm.iter().any(|t| token_eq(t, &phrase_norm[0]));
    }
    // multi-word phrase: consecutive token match
    if text_norm.len() < phrase_norm.len() {
        return false;
    }
    text_norm
        .windows(phrase_norm.len())
        .any(|w| w.iter().zip(&phrase_norm).all(|(t, p)| token_eq(t, p)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> FtMatchOptions {
        FtMatchOptions::default()
    }

    #[test]
    fn single_word() {
        assert!(phrase_matches("the quick brown fox", "quick", &opts()));
        assert!(!phrase_matches("the quick brown fox", "slow", &opts()));
        // tokenisation is case-insensitive by default
        assert!(phrase_matches("The QUICK fox", "quick", &opts()));
    }

    #[test]
    fn phrase_must_be_consecutive() {
        assert!(phrase_matches("a b c d", "b c", &opts()));
        assert!(!phrase_matches("a b x c", "b c", &opts()));
    }

    #[test]
    fn stemming_conflates_variants() {
        let o = FtMatchOptions {
            stemming: true,
            ..Default::default()
        };
        assert!(phrase_matches("three dogs barked", "dog", &o));
        assert!(phrase_matches("the dog barked", "dogs", &o));
        assert!(!phrase_matches("three dogs barked", "dog", &opts()));
    }

    #[test]
    fn case_sensitivity_option() {
        let o = FtMatchOptions {
            case_sensitive: true,
            ..Default::default()
        };
        assert!(phrase_matches("Internet Explorer", "Internet", &o));
        assert!(!phrase_matches("internet explorer", "Internet", &o));
    }

    #[test]
    fn wildcards() {
        let o = FtMatchOptions {
            wildcards: true,
            ..Default::default()
        };
        assert!(phrase_matches("computers are great", "comput*", &o));
        assert!(!phrase_matches("cats are great", "comput*", &o));
    }

    #[test]
    fn url_words_tokenise() {
        // §4.2.1: `$x/location/href ftcontains "https://"` — the URL text
        // tokenises to the word `https`
        assert!(phrase_matches(
            "https://www.dbis.ethz.ch",
            "https://",
            &opts()
        ));
        assert!(!phrase_matches("http://www.dbis.ethz.ch", "https", &opts()));
    }
}
