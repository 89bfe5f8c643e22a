//! Offline stand-in for `serde_derive`: `derive(Serialize)` only —
//! serialisation in this workspace is output-only.
//!
//! `syn`/`quote` are unavailable (no registry), so the derive parses the
//! item declaration directly from the `proc_macro` token stream and emits
//! generated code as text. Supported shapes — which cover every derived
//! type in this workspace:
//!
//! * structs with named fields,
//! * tuple structs (single-field = transparent newtype, multi-field =
//!   JSON array),
//! * unit structs,
//! * enums with unit, newtype, tuple and struct variants (externally
//!   tagged, like real serde's default).
//!
//! Generic types and `#[serde(...)]` attributes are intentionally
//! unsupported and produce a compile error naming this file.

use proc_macro::{Delimiter, TokenStream, TokenTree};

enum Fields {
    Named(Vec<String>),
    Tuple(usize),
    Unit,
}

struct Variant {
    name: String,
    fields: Fields,
}

enum Item {
    Struct { name: String, fields: Fields },
    Enum { name: String, variants: Vec<Variant> },
}

/// Skip attributes (`#[...]`, including doc comments) and visibility
/// (`pub`, `pub(...)`) at the cursor.
fn skip_attrs_and_vis(tokens: &[TokenTree], mut i: usize) -> usize {
    loop {
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                // `#` then `[...]` group.
                i += 2;
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                i += 1;
                if let Some(TokenTree::Group(g)) = tokens.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1;
                    }
                }
            }
            _ => return i,
        }
    }
}

/// Parse `name: Type` fields from the body of a braced field list.
fn parse_named_fields(stream: TokenStream) -> Result<Vec<String>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        i = skip_attrs_and_vis(&tokens, i);
        let Some(TokenTree::Ident(name)) = tokens.get(i) else {
            return Err(format!("expected field name, found {:?}", tokens.get(i).map(|t| t.to_string())));
        };
        fields.push(name.to_string());
        i += 1;
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => {
                return Err(format!(
                    "expected ':' after field name, found {:?}",
                    other.map(|t| t.to_string())
                ))
            }
        }
        // Consume the type: everything up to a comma at angle-bracket depth 0.
        let mut depth = 0i32;
        while let Some(tok) = tokens.get(i) {
            if let TokenTree::Punct(p) = tok {
                match p.as_char() {
                    '<' => depth += 1,
                    '>' => depth -= 1,
                    ',' if depth == 0 => break,
                    _ => {}
                }
            }
            i += 1;
        }
        i += 1; // past the comma (or end)
    }
    Ok(fields)
}

/// Count the fields of a parenthesised tuple field list.
fn count_tuple_fields(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut depth = 0i32;
    let mut count = 1;
    for tok in &tokens {
        if let TokenTree::Punct(p) = tok {
            match p.as_char() {
                '<' => depth += 1,
                '>' => depth -= 1,
                ',' if depth == 0 => count += 1,
                _ => {}
            }
        }
    }
    // A trailing comma does not add a field.
    if let Some(TokenTree::Punct(p)) = tokens.last() {
        if p.as_char() == ',' {
            count -= 1;
        }
    }
    count
}

fn parse_variants(stream: TokenStream) -> Result<Vec<Variant>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        i = skip_attrs_and_vis(&tokens, i);
        if i >= tokens.len() {
            break;
        }
        let Some(TokenTree::Ident(name)) = tokens.get(i) else {
            return Err(format!("expected variant name, found {:?}", tokens.get(i).map(|t| t.to_string())));
        };
        let name = name.to_string();
        i += 1;
        let fields = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let f = Fields::Named(parse_named_fields(g.stream())?);
                i += 1;
                f
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let f = Fields::Tuple(count_tuple_fields(g.stream()));
                i += 1;
                f
            }
            _ => Fields::Unit,
        };
        // Skip a discriminant (`= expr`) if present, then the comma.
        while let Some(tok) = tokens.get(i) {
            if let TokenTree::Punct(p) = tok {
                if p.as_char() == ',' {
                    i += 1;
                    break;
                }
            }
            i += 1;
        }
        variants.push(Variant { name, fields });
    }
    Ok(variants)
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = skip_attrs_and_vis(&tokens, 0);
    let kind = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => {
            return Err(format!("expected 'struct' or 'enum', found {:?}", other.map(|t| t.to_string())))
        }
    };
    i += 1;
    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected type name, found {:?}", other.map(|t| t.to_string()))),
    };
    i += 1;
    if let Some(TokenTree::Punct(p)) = tokens.get(i) {
        if p.as_char() == '<' {
            return Err(format!(
                "the in-repo serde_derive shim does not support generic type `{name}` — \
                 implement Serialize by hand"
            ));
        }
    }
    match kind.as_str() {
        "struct" => {
            let fields = match tokens.get(i) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Fields::Named(parse_named_fields(g.stream())?)
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    Fields::Tuple(count_tuple_fields(g.stream()))
                }
                Some(TokenTree::Punct(p)) if p.as_char() == ';' => Fields::Unit,
                other => return Err(format!("unsupported struct body: {:?}", other.map(|t| t.to_string()))),
            };
            Ok(Item::Struct { name, fields })
        }
        "enum" => {
            let variants = match tokens.get(i) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => parse_variants(g.stream())?,
                other => return Err(format!("unsupported enum body: {:?}", other.map(|t| t.to_string()))),
            };
            Ok(Item::Enum { name, variants })
        }
        other => Err(format!("cannot derive for '{other}' items")),
    }
}

fn compile_error(msg: &str) -> TokenStream {
    format!("::core::compile_error!({msg:?});").parse().unwrap()
}

// ------------------------------------------------------------- Serialize

fn gen_serialize(item: &Item) -> String {
    match item {
        Item::Struct { name, fields } => {
            let body = match fields {
                Fields::Named(fs) => {
                    let entries: Vec<String> = fs
                        .iter()
                        .map(|f| {
                            format!(
                                "(::std::string::String::from({f:?}), ::serde::Serialize::to_value(&self.{f}))"
                            )
                        })
                        .collect();
                    format!("::serde::Value::Object(::std::vec![{}])", entries.join(", "))
                }
                Fields::Tuple(1) => "::serde::Serialize::to_value(&self.0)".to_string(),
                Fields::Tuple(n) => {
                    let items: Vec<String> =
                        (0..*n).map(|i| format!("::serde::Serialize::to_value(&self.{i})")).collect();
                    format!("::serde::Value::Array(::std::vec![{}])", items.join(", "))
                }
                Fields::Unit => "::serde::Value::Null".to_string(),
            };
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{ {body} }}\n\
                 }}"
            )
        }
        Item::Enum { name, variants } => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    let vn = &v.name;
                    match &v.fields {
                        Fields::Unit => format!(
                            "{name}::{vn} => ::serde::Value::Str(::std::string::String::from({vn:?}))"
                        ),
                        Fields::Named(fs) => {
                            let binds = fs.join(", ");
                            let entries: Vec<String> = fs
                                .iter()
                                .map(|f| {
                                    format!(
                                        "(::std::string::String::from({f:?}), ::serde::Serialize::to_value({f}))"
                                    )
                                })
                                .collect();
                            format!(
                                "{name}::{vn} {{ {binds} }} => ::serde::Value::Object(::std::vec![\
                                 (::std::string::String::from({vn:?}), \
                                  ::serde::Value::Object(::std::vec![{}]))])",
                                entries.join(", ")
                            )
                        }
                        Fields::Tuple(1) => format!(
                            "{name}::{vn}(x0) => ::serde::Value::Object(::std::vec![\
                             (::std::string::String::from({vn:?}), ::serde::Serialize::to_value(x0))])"
                        ),
                        Fields::Tuple(n) => {
                            let binds: Vec<String> = (0..*n).map(|i| format!("x{i}")).collect();
                            let items: Vec<String> =
                                binds.iter().map(|b| format!("::serde::Serialize::to_value({b})")).collect();
                            format!(
                                "{name}::{vn}({}) => ::serde::Value::Object(::std::vec![\
                                 (::std::string::String::from({vn:?}), \
                                  ::serde::Value::Array(::std::vec![{}]))])",
                                binds.join(", "),
                                items.join(", ")
                            )
                        }
                    }
                })
                .collect();
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{ match self {{ {} }} }}\n\
                 }}",
                arms.join(",\n")
            )
        }
    }
}

#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    match parse_item(input) {
        Ok(item) => gen_serialize(&item).parse().unwrap(),
        Err(e) => compile_error(&format!("derive(Serialize): {e}")),
    }
}
