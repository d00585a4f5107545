//! Parser for the textual smali-like syntax emitted by [`crate::printer`].

use crate::class::{ClassDef, FieldDef, MethodDef, Visibility};
use crate::error::ParseError;
use crate::lexer::{tokenize_line, Token};
use crate::name::{ClassName, MethodName};
use crate::res::{ResKind, ResName, ResRef};
use crate::stmt::{Cond, IntentTarget, Stmt};
use std::collections::HashMap;

/// Parses one `.class … .end class` definition.
pub fn parse_class(text: &str) -> Result<ClassDef, ParseError> {
    let mut classes = parse_classes(text)?;
    match classes.len() {
        1 => Ok(classes.remove(0)),
        0 => Err(ParseError::new(1, "no class definition found")),
        n => Err(ParseError::new(1, format!("expected one class, found {n}"))),
    }
}

/// Parses a file that may contain several class definitions.
pub fn parse_classes(text: &str) -> Result<Vec<ClassDef>, ParseError> {
    let mut lines = Lines::new(text);
    let mut interner = Interner::for_text(text.len());
    let mut classes = Vec::new();
    while let Some((line_no, tokens)) = lines.next_nonempty()? {
        let head = expect_word_at(&tokens, 0, line_no)?;
        if head != ".class" {
            return Err(ParseError::new(line_no, format!("expected '.class', found '{head}'")));
        }
        classes.push(parse_class_body(&mut lines, &mut interner, &tokens, line_no)?);
        lines.recycle(tokens);
    }
    Ok(classes)
}

/// String interner for class, method and resource names: one file
/// mentions the same descriptor over and over (every `new-intent-class`,
/// `txn-add`, `invoke` repeats its target; a layout's name appears in
/// each class that inflates it), so the first mention allocates the
/// `Arc<str>` and every later one is a refcount bump. Keys borrow from
/// the input text, which outlives the parse.
///
/// The keys come from the input, so the maps keep std's keyed hasher: a
/// container cannot be crafted to make its names collide.
struct Interner<'a> {
    classes: HashMap<&'a str, ClassName>,
    methods: HashMap<&'a str, MethodName>,
    resources: HashMap<&'a str, ResName>,
}

impl<'a> Interner<'a> {
    /// An interner sized for a file of `len` bytes: about one distinct
    /// name of each sort per 200 bytes, so the maps of an app's classes
    /// rarely grow; capped, since `len` comes from the input.
    fn for_text(len: usize) -> Self {
        fn sized<'a, V>(len: usize) -> HashMap<&'a str, V> {
            HashMap::with_capacity((len / 200).min(64))
        }
        Interner { classes: sized(len), methods: sized(len), resources: sized(len) }
    }

    /// The [`ClassName`] for a smali descriptor, cached per spelling.
    fn class(&mut self, descriptor: &'a str, line_no: usize) -> Result<ClassName, ParseError> {
        if let Some(name) = self.classes.get(descriptor) {
            return Ok(name.clone());
        }
        let name = ClassName::from_descriptor(descriptor).ok_or_else(|| {
            ParseError::new(line_no, format!("malformed class descriptor '{descriptor}'"))
        })?;
        self.classes.insert(descriptor, name.clone());
        Ok(name)
    }

    /// The [`MethodName`] for a raw name, cached per spelling.
    fn method(&mut self, name: &'a str) -> MethodName {
        self.methods.entry(name).or_insert_with(|| MethodName::from(name)).clone()
    }

    /// The [`ResRef`] for a lexed reference; the name is cached per
    /// spelling and shared across namespaces.
    fn res(&mut self, kind: ResKind, name: &'a str) -> ResRef {
        let name = self.resources.entry(name).or_insert_with(|| ResName::from(name)).clone();
        ResRef { kind, name }
    }
}

/// Cursor over the non-empty, tokenized lines of the input, with the
/// parse's scratch buffers.
struct Lines<'a> {
    text: &'a str,
    /// Where the next line starts.
    pos: usize,
    /// The 1-based number of the last line tokenized.
    line_no: usize,
    /// Retired token buffers, reused by [`Lines::next_nonempty`] so the
    /// parse loop allocates O(nesting) vectors instead of one per line.
    spare: Vec<Vec<Token<'a>>>,
    /// The open statement blocks, innermost last: a block parses onto
    /// the end and moves out as one exact-size `Vec` when it closes.
    stmts: Vec<Stmt>,
    /// The methods of the class being parsed, likewise.
    methods: Vec<MethodDef>,
}

impl<'a> Lines<'a> {
    fn new(text: &'a str) -> Self {
        Lines {
            text,
            pos: 0,
            line_no: 0,
            spare: Vec::new(),
            stmts: Vec::new(),
            methods: Vec::new(),
        }
    }

    /// Next line with at least one token (skipping blanks and comments),
    /// as `(1-based line number, tokens)`. Callers hand finished buffers
    /// back via [`Lines::recycle`].
    fn next_nonempty(&mut self) -> Result<Option<(usize, Vec<Token<'a>>)>, ParseError> {
        let mut tokens = self.spare.pop().unwrap_or_default();
        while self.pos < self.text.len() {
            self.line_no += 1;
            tokens.clear();
            self.pos = tokenize_line(self.text, self.pos, self.line_no, &mut tokens)?;
            if !tokens.is_empty() {
                return Ok(Some((self.line_no, tokens)));
            }
        }
        self.spare.push(tokens);
        Ok(None)
    }

    /// Returns a token buffer to the pool once its line is consumed.
    fn recycle(&mut self, tokens: Vec<Token<'a>>) {
        self.spare.push(tokens);
    }
}

fn expect_word_at<'a>(
    tokens: &[Token<'a>],
    idx: usize,
    line_no: usize,
) -> Result<&'a str, ParseError> {
    tokens
        .get(idx)
        .and_then(Token::as_word)
        .ok_or_else(|| ParseError::new(line_no, format!("expected word at position {idx}")))
}

fn expect_class_at<'a>(
    tokens: &[Token<'a>],
    idx: usize,
    line_no: usize,
    interner: &mut Interner<'a>,
) -> Result<ClassName, ParseError> {
    let word = expect_word_at(tokens, idx, line_no)?;
    interner.class(word, line_no)
}

/// The [`ResRef`] at position `idx`, its name interned.
fn expect_res_at<'a>(
    tokens: &[Token<'a>],
    idx: usize,
    line_no: usize,
    interner: &mut Interner<'a>,
) -> Result<ResRef, ParseError> {
    match tokens.get(idx) {
        Some(&Token::Res(kind, name)) => Ok(interner.res(kind, name)),
        _ => Err(ParseError::new(line_no, format!("expected resource ref at position {idx}"))),
    }
}

/// Moves the string literal out of position `idx`; only borrows allocate.
fn expect_str_at(
    tokens: &mut [Token<'_>],
    idx: usize,
    line_no: usize,
) -> Result<String, ParseError> {
    match tokens.get_mut(idx) {
        Some(Token::Str(s)) => {
            Ok(std::mem::replace(s, std::borrow::Cow::Borrowed("")).into_owned())
        }
        _ => Err(ParseError::new(line_no, format!("expected string literal at position {idx}"))),
    }
}

fn expect_len(tokens: &[Token<'_>], len: usize, line_no: usize) -> Result<(), ParseError> {
    if tokens.len() == len {
        Ok(())
    } else {
        Err(ParseError::new(line_no, format!("expected {len} tokens, found {}", tokens.len())))
    }
}

fn parse_class_body<'a>(
    lines: &mut Lines<'a>,
    interner: &mut Interner<'a>,
    header: &[Token<'a>],
    header_line: usize,
) -> Result<ClassDef, ParseError> {
    // .class <visibility> [abstract] <descriptor>
    let visibility = Visibility::from_token(expect_word_at(header, 1, header_line)?)
        .ok_or_else(|| ParseError::new(header_line, "expected visibility after '.class'"))?;
    let (is_abstract, name_idx) = match header.get(2).and_then(Token::as_word) {
        Some("abstract") => (true, 3),
        _ => (false, 2),
    };
    let name = expect_class_at(header, name_idx, header_line, interner)?;
    expect_len(header, name_idx + 1, header_line)?;

    // .super is mandatory and must come first.
    let (line_no, tokens) = lines
        .next_nonempty()?
        .ok_or_else(|| ParseError::new(header_line, "missing '.super' line"))?;
    if expect_word_at(&tokens, 0, line_no)? != ".super" {
        return Err(ParseError::new(line_no, "expected '.super'"));
    }
    let super_class = expect_class_at(&tokens, 1, line_no, interner)?;
    expect_len(&tokens, 2, line_no)?;
    lines.recycle(tokens);

    let mut class = ClassDef {
        name,
        super_class,
        interfaces: Vec::new(),
        visibility,
        is_abstract,
        fields: Vec::new(),
        methods: Vec::new(),
    };

    let base = lines.methods.len();
    loop {
        let (line_no, tokens) = lines
            .next_nonempty()?
            .ok_or_else(|| ParseError::new(header_line, "missing '.end class'"))?;
        match expect_word_at(&tokens, 0, line_no)? {
            ".end" => {
                if tokens.get(1).and_then(Token::as_word) == Some("class") {
                    lines.recycle(tokens);
                    class.methods = lines.methods.drain(base..).collect();
                    return Ok(class);
                }
                return Err(ParseError::new(line_no, "expected '.end class'"));
            }
            ".implements" => {
                class.interfaces.push(expect_class_at(&tokens, 1, line_no, interner)?);
                expect_len(&tokens, 2, line_no)?;
                lines.recycle(tokens);
            }
            ".field" => {
                let name = expect_word_at(&tokens, 1, line_no)?.to_string();
                let ty = expect_word_at(&tokens, 2, line_no)?.to_string();
                expect_len(&tokens, 3, line_no)?;
                class.fields.push(FieldDef { name, ty });
                lines.recycle(tokens);
            }
            ".method" => {
                let method = parse_method(lines, interner, &tokens, line_no)?;
                lines.methods.push(method);
                lines.recycle(tokens);
            }
            other => {
                return Err(ParseError::new(
                    line_no,
                    format!("unexpected directive '{other}' in class body"),
                ))
            }
        }
    }
}

fn parse_method<'a>(
    lines: &mut Lines<'a>,
    interner: &mut Interner<'a>,
    header: &[Token<'a>],
    header_line: usize,
) -> Result<MethodDef, ParseError> {
    // .method <visibility> <name>(<params,comma-separated>)
    let visibility = Visibility::from_token(expect_word_at(header, 1, header_line)?)
        .ok_or_else(|| ParseError::new(header_line, "expected visibility after '.method'"))?;
    let sig = expect_word_at(header, 2, header_line)?;
    expect_len(header, 3, header_line)?;
    let (name, rest) = sig
        .split_once('(')
        .ok_or_else(|| ParseError::new(header_line, "missing '(' in method signature"))?;
    let params_raw = rest
        .strip_suffix(')')
        .ok_or_else(|| ParseError::new(header_line, "missing ')' in method signature"))?;
    let params: Vec<String> = if params_raw.is_empty() {
        Vec::new()
    } else {
        params_raw.split(',').map(str::to_string).collect()
    };

    let (body, terminator) = parse_stmts(lines, interner, header_line, 0)?;
    match terminator {
        Terminator::EndMethod => {}
        other => {
            return Err(ParseError::new(
                header_line,
                format!("method body ended with {other:?}, expected '.end method'"),
            ))
        }
    }
    Ok(MethodDef { name: interner.method(name), params, visibility, body })
}

/// What ended a statement block.
#[derive(Debug, PartialEq, Eq)]
enum Terminator {
    EndMethod,
    Else,
    EndIf,
}

/// Maximum `if` nesting depth. Parsing recurses per nested `if`, so an
/// adversarial input of thousands of `if` lines would otherwise overflow
/// the stack — an abort no `catch_unwind` can contain. Real handler code
/// never comes close to this.
pub const MAX_IF_DEPTH: usize = 64;

fn parse_stmts<'a>(
    lines: &mut Lines<'a>,
    interner: &mut Interner<'a>,
    start_line: usize,
    depth: usize,
) -> Result<(Vec<Stmt>, Terminator), ParseError> {
    let base = lines.stmts.len();
    loop {
        let (line_no, mut tokens) = lines
            .next_nonempty()?
            .ok_or_else(|| ParseError::new(start_line, "unterminated statement block"))?;
        let head = expect_word_at(&tokens, 0, line_no)?;
        let terminator = match head {
            ".end" => {
                if tokens.get(1).and_then(Token::as_word) != Some("method") {
                    // `.end class` etc. are not valid inside a method; report.
                    return Err(ParseError::new(line_no, "unexpected '.end' inside method body"));
                }
                Terminator::EndMethod
            }
            "else" => Terminator::Else,
            "end-if" => Terminator::EndIf,
            "if" => {
                if depth >= MAX_IF_DEPTH {
                    return Err(ParseError::new(
                        line_no,
                        format!("'if' nesting exceeds the maximum depth of {MAX_IF_DEPTH}"),
                    ));
                }
                let cond = parse_cond(&mut tokens[1..], line_no, interner)?;
                lines.recycle(tokens);
                let (then, term) = parse_stmts(lines, interner, line_no, depth + 1)?;
                let (els, term) = match term {
                    Terminator::Else => parse_stmts(lines, interner, line_no, depth + 1)?,
                    other => (Vec::new(), other),
                };
                if term != Terminator::EndIf {
                    return Err(ParseError::new(line_no, "missing 'end-if'"));
                }
                lines.stmts.push(Stmt::If { cond, then, els });
                continue;
            }
            _ => {
                let stmt = parse_simple_stmt(head, &mut tokens, line_no, interner)?;
                lines.stmts.push(stmt);
                lines.recycle(tokens);
                continue;
            }
        };
        lines.recycle(tokens);
        return Ok((lines.stmts.drain(base..).collect(), terminator));
    }
}

fn parse_cond<'a>(
    tokens: &mut [Token<'a>],
    line_no: usize,
    interner: &mut Interner<'a>,
) -> Result<Cond, ParseError> {
    let head = expect_word_at(tokens, 0, line_no)?;
    match head {
        "input-equals" => {
            expect_len(tokens, 3, line_no)?;
            Ok(Cond::InputEquals {
                field: expect_res_at(tokens, 1, line_no, interner)?,
                expected: expect_str_at(tokens, 2, line_no)?,
            })
        }
        "input-non-empty" => {
            expect_len(tokens, 2, line_no)?;
            Ok(Cond::InputNonEmpty { field: expect_res_at(tokens, 1, line_no, interner)? })
        }
        "has-extra" => {
            expect_len(tokens, 2, line_no)?;
            Ok(Cond::HasExtra { key: expect_str_at(tokens, 1, line_no)? })
        }
        other => Err(ParseError::new(line_no, format!("unknown condition '{other}'"))),
    }
}

fn parse_simple_stmt<'a>(
    head: &str,
    tokens: &mut [Token<'a>],
    line_no: usize,
    interner: &mut Interner<'a>,
) -> Result<Stmt, ParseError> {
    let stmt = match head {
        "set-content-view" => {
            expect_len(tokens, 2, line_no)?;
            Stmt::SetContentView(expect_res_at(tokens, 1, line_no, interner)?)
        }
        "inflate" => {
            expect_len(tokens, 2, line_no)?;
            Stmt::InflateLayout(expect_res_at(tokens, 1, line_no, interner)?)
        }
        "find-view" => {
            expect_len(tokens, 2, line_no)?;
            Stmt::FindViewById(expect_res_at(tokens, 1, line_no, interner)?)
        }
        "set-on-click" => {
            expect_len(tokens, 3, line_no)?;
            Stmt::SetOnClick {
                widget: expect_res_at(tokens, 1, line_no, interner)?,
                handler: interner.method(expect_word_at(tokens, 2, line_no)?),
            }
        }
        "new-intent-class" => {
            expect_len(tokens, 2, line_no)?;
            Stmt::NewIntent(IntentTarget::Class(expect_class_at(tokens, 1, line_no, interner)?))
        }
        "new-intent-action" => {
            expect_len(tokens, 2, line_no)?;
            Stmt::NewIntent(IntentTarget::Action(expect_str_at(tokens, 1, line_no)?))
        }
        "set-class" => {
            expect_len(tokens, 2, line_no)?;
            Stmt::SetClass(expect_class_at(tokens, 1, line_no, interner)?)
        }
        "set-action" => {
            expect_len(tokens, 2, line_no)?;
            Stmt::SetAction(expect_str_at(tokens, 1, line_no)?)
        }
        "put-extra" => {
            expect_len(tokens, 3, line_no)?;
            Stmt::PutExtra {
                key: expect_str_at(tokens, 1, line_no)?,
                value: expect_str_at(tokens, 2, line_no)?,
            }
        }
        "start-activity" => {
            expect_len(tokens, 1, line_no)?;
            Stmt::StartActivity { via_host: false }
        }
        "start-activity-via-host" => {
            expect_len(tokens, 1, line_no)?;
            Stmt::StartActivity { via_host: true }
        }
        "require-extra" => {
            expect_len(tokens, 2, line_no)?;
            Stmt::RequireExtra { key: expect_str_at(tokens, 1, line_no)? }
        }
        "require-permission" => {
            expect_len(tokens, 2, line_no)?;
            Stmt::RequirePermission { permission: expect_str_at(tokens, 1, line_no)? }
        }
        "new-instance" => {
            expect_len(tokens, 2, line_no)?;
            Stmt::NewInstance(expect_class_at(tokens, 1, line_no, interner)?)
        }
        "new-instance-static" => {
            expect_len(tokens, 2, line_no)?;
            Stmt::NewInstanceStatic(expect_class_at(tokens, 1, line_no, interner)?)
        }
        "instance-of" => {
            expect_len(tokens, 2, line_no)?;
            Stmt::InstanceOf(expect_class_at(tokens, 1, line_no, interner)?)
        }
        "get-fragment-manager" => {
            expect_len(tokens, 1, line_no)?;
            Stmt::GetFragmentManager { support: false }
        }
        "get-support-fragment-manager" => {
            expect_len(tokens, 1, line_no)?;
            Stmt::GetFragmentManager { support: true }
        }
        "begin-transaction" => {
            expect_len(tokens, 1, line_no)?;
            Stmt::BeginTransaction
        }
        "txn-add" => {
            expect_len(tokens, 3, line_no)?;
            Stmt::TxnAdd {
                container: expect_res_at(tokens, 1, line_no, interner)?,
                fragment: expect_class_at(tokens, 2, line_no, interner)?,
            }
        }
        "txn-replace" => {
            expect_len(tokens, 3, line_no)?;
            Stmt::TxnReplace {
                container: expect_res_at(tokens, 1, line_no, interner)?,
                fragment: expect_class_at(tokens, 2, line_no, interner)?,
            }
        }
        "txn-commit" => {
            expect_len(tokens, 1, line_no)?;
            Stmt::TxnCommit
        }
        "attach-direct" => {
            expect_len(tokens, 3, line_no)?;
            Stmt::AttachDirect {
                container: expect_res_at(tokens, 1, line_no, interner)?,
                fragment: expect_class_at(tokens, 2, line_no, interner)?,
            }
        }
        "toggle-drawer" => {
            expect_len(tokens, 2, line_no)?;
            Stmt::ToggleDrawer { drawer: expect_res_at(tokens, 1, line_no, interner)? }
        }
        "show-dialog" => {
            expect_len(tokens, 2, line_no)?;
            Stmt::ShowDialog { id: expect_str_at(tokens, 1, line_no)? }
        }
        "show-popup-menu" => {
            expect_len(tokens, 2, line_no)?;
            Stmt::ShowPopupMenu { id: expect_str_at(tokens, 1, line_no)? }
        }
        "invoke-api" => {
            expect_len(tokens, 2, line_no)?;
            let spec = expect_word_at(tokens, 1, line_no)?;
            let (group, name) = spec
                .split_once('/')
                .ok_or_else(|| ParseError::new(line_no, "invoke-api expects '<group>/<name>'"))?;
            Stmt::InvokeApi { group: group.to_string(), name: name.to_string() }
        }
        "invoke" => {
            expect_len(tokens, 3, line_no)?;
            Stmt::InvokeMethod {
                class: expect_class_at(tokens, 1, line_no, interner)?,
                method: interner.method(expect_word_at(tokens, 2, line_no)?),
            }
        }
        "finish" => {
            expect_len(tokens, 1, line_no)?;
            Stmt::Finish
        }
        "crash" => {
            expect_len(tokens, 2, line_no)?;
            Stmt::Crash { reason: expect_str_at(tokens, 1, line_no)? }
        }
        other => return Err(ParseError::new(line_no, format!("unknown statement '{other}'"))),
    };
    Ok(stmt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::printer::print_class;
    use crate::res::ResRef;

    fn sample() -> ClassDef {
        ClassDef::new("com.example.Main", crate::well_known::ACTIVITY)
            .with_interface("android.view.View$OnClickListener")
            .with_field(FieldDef::new("count", "int"))
            .with_method(
                MethodDef::new("onCreate").push(Stmt::SetContentView(ResRef::layout("main"))).push(
                    Stmt::SetOnClick { widget: ResRef::id("go"), handler: MethodName::new("onGo") },
                ),
            )
            .with_method(
                MethodDef::new("onGo")
                    .push(Stmt::NewIntent(IntentTarget::Class(ClassName::new(
                        "com.example.Second",
                    ))))
                    .push(Stmt::PutExtra { key: "id".into(), value: "42".into() })
                    .push(Stmt::StartActivity { via_host: false }),
            )
    }

    #[test]
    fn print_parse_roundtrip() {
        let class = sample();
        let text = print_class(&class);
        assert_eq!(parse_class(&text).unwrap(), class);
    }

    #[test]
    fn parses_if_else_nesting() {
        let class = ClassDef::new("a.B", "java.lang.Object").with_method(MethodDef::new("m").push(
            Stmt::If {
                cond: Cond::InputEquals { field: ResRef::id("pw"), expected: "s3cret".into() },
                then: vec![Stmt::If {
                    cond: Cond::HasExtra { key: "k".into() },
                    then: vec![Stmt::Finish],
                    els: vec![],
                }],
                els: vec![Stmt::ShowDialog { id: "wrong password".into() }],
            },
        ));
        let text = print_class(&class);
        assert_eq!(parse_class(&text).unwrap(), class);
    }

    #[test]
    fn parses_multiple_classes() {
        let a = ClassDef::new("a.A", "java.lang.Object");
        let b = ClassDef::new("a.B", "a.A");
        let text = format!("{}\n{}", print_class(&a), print_class(&b));
        let classes = parse_classes(&text).unwrap();
        assert_eq!(classes, vec![a, b]);
    }

    #[test]
    fn parses_abstract_and_visibility() {
        let c = ClassDef::new("a.C", "java.lang.Object").abstract_();
        let text = print_class(&c);
        assert!(text.starts_with(".class public abstract La/C;"));
        assert_eq!(parse_class(&text).unwrap(), c);
    }

    #[test]
    fn parses_ctor_with_params() {
        let c = ClassDef::new("a.F", "android.app.Fragment").with_method(
            MethodDef::new(MethodName::ctor()).with_param("java.lang.String").with_param("int"),
        );
        let text = print_class(&c);
        let parsed = parse_class(&text).unwrap();
        assert!(!parsed.has_default_ctor());
        assert_eq!(parsed, c);
    }

    #[test]
    fn error_on_unknown_statement() {
        let text = ".class public La/B;\n.super Ljava/lang/Object;\n.method public m()\nwat\n.end method\n.end class\n";
        let err = parse_class(text).unwrap_err();
        assert_eq!(err.line, 4);
        assert!(err.message.contains("unknown statement"));
    }

    #[test]
    fn error_on_missing_end_if() {
        let text = ".class public La/B;\n.super Ljava/lang/Object;\n.method public m()\nif has-extra \"k\"\nfinish\n.end method\n.end class\n";
        assert!(parse_class(text).is_err());
    }

    #[test]
    fn if_nesting_below_limit_parses_and_above_limit_errors() {
        let nested = |depth: usize| {
            let mut body = String::new();
            for _ in 0..depth {
                body.push_str("if has-extra \"k\"\n");
            }
            body.push_str("finish\n");
            for _ in 0..depth {
                body.push_str("end-if\n");
            }
            format!(
                ".class public La/B;\n.super Ljava/lang/Object;\n.method public m()\n{body}.end method\n.end class\n"
            )
        };
        assert!(parse_class(&nested(MAX_IF_DEPTH)).is_ok());
        let err = parse_class(&nested(MAX_IF_DEPTH + 1)).unwrap_err();
        assert!(err.message.contains("nesting"), "got: {}", err.message);
        // Thousands of unclosed `if`s must error, not overflow the stack.
        let mut deep =
            String::from(".class public La/B;\n.super Ljava/lang/Object;\n.method public m()\n");
        for _ in 0..50_000 {
            deep.push_str("if has-extra \"k\"\n");
        }
        assert!(parse_class(&deep).is_err());
    }

    #[test]
    fn error_on_missing_super() {
        let text = ".class public La/B;\n.end class\n";
        assert!(parse_class(text).is_err());
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# header comment\n\n.class public La/B;\n.super Ljava/lang/Object;\n# body\n.end class\n";
        let c = parse_class(text).unwrap();
        assert_eq!(c.name.as_str(), "a.B");
    }
}
