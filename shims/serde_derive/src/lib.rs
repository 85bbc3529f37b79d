//! In-tree shim for `serde_derive`: a `#[derive(Serialize)]` proc macro
//! generating impls of the *shim* `serde::Serialize` (`to_value`, which
//! builds a `serde::Value`).
//!
//! Written against `proc_macro` directly (no `syn`/`quote` — the build
//! environment cannot download them). Supported shapes, which cover every
//! derive in this workspace:
//!
//! - structs with named fields (including lifetime-generic structs),
//! - enums with unit variants,
//! - enums with struct (named-field) variants, externally tagged,
//! - the field attribute `#[serde(skip_serializing_if = "path")]`.
//!
//! Anything else (tuple structs, tuple variants, type-parameter generics
//! needing bounds) fails loudly at expansion time rather than mis-deriving.

use proc_macro::{Delimiter, Spacing, TokenStream, TokenTree};

// ---------------------------------------------------------------------
// Input model
// ---------------------------------------------------------------------

struct Field {
    name: String,
    skip_if: Option<String>,
}

struct Variant {
    name: String,
    /// `None` for unit variants, `Some(fields)` for struct variants.
    fields: Option<Vec<Field>>,
}

enum Body {
    Struct(Vec<Field>),
    Enum(Vec<Variant>),
}

struct Item {
    name: String,
    /// Full generics including bounds, e.g. `<'a>` (empty when absent).
    generics_full: String,
    /// Bound-stripped argument list, e.g. `<'a>` (empty when absent).
    generics_args: String,
    body: Body,
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

fn tokens_to_string(tokens: &[TokenTree]) -> String {
    tokens.iter().cloned().collect::<TokenStream>().to_string()
}

fn is_punct(t: &TokenTree, c: char) -> bool {
    matches!(t, TokenTree::Punct(p) if p.as_char() == c)
}

/// Skip one `#[...]` attribute if present; returns the bracket group.
fn take_attr(tokens: &[TokenTree], i: &mut usize) -> Option<TokenStream> {
    if *i + 1 < tokens.len() && is_punct(&tokens[*i], '#') {
        if let TokenTree::Group(g) = &tokens[*i + 1] {
            if g.delimiter() == Delimiter::Bracket {
                *i += 2;
                return Some(g.stream());
            }
        }
    }
    None
}

/// Skip `pub`, `pub(...)` visibility if present.
fn skip_visibility(tokens: &[TokenTree], i: &mut usize) {
    if matches!(&tokens[*i], TokenTree::Ident(id) if id.to_string() == "pub") {
        *i += 1;
        if *i < tokens.len() {
            if let TokenTree::Group(g) = &tokens[*i] {
                if g.delimiter() == Delimiter::Parenthesis {
                    *i += 1;
                }
            }
        }
    }
}

/// Parse a `#[serde(...)]` attribute body into its `skip_serializing_if` path.
fn parse_serde_attr(stream: TokenStream, skip_if: &mut Option<String>) {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    if tokens.is_empty() || tokens[0].to_string() != "serde" {
        return;
    }
    let Some(TokenTree::Group(args)) = tokens.get(1) else {
        return;
    };
    let inner: Vec<TokenTree> = args.stream().into_iter().collect();
    let mut j = 0;
    while j < inner.len() {
        match &inner[j] {
            TokenTree::Ident(id) if id.to_string() == "skip_serializing_if" => {
                // skip_serializing_if = "path"
                if j + 2 < inner.len() && is_punct(&inner[j + 1], '=') {
                    let lit = inner[j + 2].to_string();
                    *skip_if = Some(lit.trim_matches('"').to_string());
                }
                j += 3;
            }
            _ => j += 1,
        }
    }
}

/// Parse the fields of a brace-delimited named-field body.
fn parse_fields(stream: TokenStream) -> Vec<Field> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let mut skip_if = None;
        while let Some(attr) = take_attr(&tokens, &mut i) {
            parse_serde_attr(attr, &mut skip_if);
        }
        if i >= tokens.len() {
            break;
        }
        skip_visibility(&tokens, &mut i);
        let TokenTree::Ident(name) = &tokens[i] else {
            panic!(
                "serde_derive shim: expected field name, found `{}`",
                tokens[i]
            );
        };
        let name = name.to_string();
        i += 1;
        assert!(
            is_punct(&tokens[i], ':'),
            "serde_derive shim: expected `:` after field name"
        );
        i += 1;
        // Skip the type: consume until a comma at angle-bracket depth 0
        // (commas inside (), [], {} are hidden inside groups already).
        let mut angle_depth = 0i32;
        while i < tokens.len() {
            if let TokenTree::Punct(p) = &tokens[i] {
                match p.as_char() {
                    '<' => angle_depth += 1,
                    '>' => angle_depth -= 1,
                    ',' if angle_depth == 0 => {
                        i += 1;
                        break;
                    }
                    _ => {}
                }
            }
            i += 1;
        }
        fields.push(Field { name, skip_if });
    }
    fields
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        while take_attr(&tokens, &mut i).is_some() {}
        if i >= tokens.len() {
            break;
        }
        let TokenTree::Ident(name) = &tokens[i] else {
            panic!(
                "serde_derive shim: expected variant name, found `{}`",
                tokens[i]
            );
        };
        let name = name.to_string();
        i += 1;
        let mut fields = None;
        if i < tokens.len() {
            if let TokenTree::Group(g) = &tokens[i] {
                match g.delimiter() {
                    Delimiter::Brace => {
                        fields = Some(parse_fields(g.stream()));
                        i += 1;
                    }
                    Delimiter::Parenthesis => {
                        panic!("serde_derive shim: tuple variant `{name}` is not supported");
                    }
                    _ => {}
                }
            }
        }
        if i < tokens.len() && is_punct(&tokens[i], ',') {
            i += 1;
        }
        variants.push(Variant { name, fields });
    }
    variants
}

/// Strip bounds from a generics token list: `'a, T: Clone` → `'a, T`.
fn strip_bounds(tokens: &[TokenTree]) -> String {
    let mut args: Vec<String> = Vec::new();
    let mut current: Vec<TokenTree> = Vec::new();
    let mut depth = 0i32;
    let mut in_bound = false;
    let flush = |current: &mut Vec<TokenTree>, args: &mut Vec<String>| {
        if !current.is_empty() {
            args.push(tokens_to_string(current));
            current.clear();
        }
    };
    for t in tokens {
        if let TokenTree::Punct(p) = t {
            match p.as_char() {
                '<' => depth += 1,
                '>' => depth -= 1,
                ',' if depth == 0 => {
                    in_bound = false;
                    flush(&mut current, &mut args);
                    continue;
                }
                ':' if depth == 0 && p.spacing() == Spacing::Alone => {
                    in_bound = true;
                    continue;
                }
                _ => {}
            }
        }
        if !in_bound {
            current.push(t.clone());
        }
    }
    flush(&mut current, &mut args);
    args.join(", ")
}

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    loop {
        if take_attr(&tokens, &mut i).is_some() {
            continue;
        }
        skip_visibility(&tokens, &mut i);
        if matches!(&tokens[i], TokenTree::Ident(id)
            if id.to_string() == "struct" || id.to_string() == "enum")
        {
            break;
        }
        i += 1;
    }
    let is_struct = tokens[i].to_string() == "struct";
    i += 1;
    let name = tokens[i].to_string();
    i += 1;
    // Generics.
    let mut generics_full = String::new();
    let mut generics_args = String::new();
    if i < tokens.len() && is_punct(&tokens[i], '<') {
        let mut depth = 0i32;
        let mut collected: Vec<TokenTree> = Vec::new();
        while i < tokens.len() {
            if let TokenTree::Punct(p) = &tokens[i] {
                match p.as_char() {
                    '<' => depth += 1,
                    '>' => depth -= 1,
                    _ => {}
                }
            }
            collected.push(tokens[i].clone());
            i += 1;
            if depth == 0 {
                break;
            }
        }
        // Drop the outer < >.
        let inner = &collected[1..collected.len() - 1];
        generics_full = format!("<{}>", tokens_to_string(inner));
        generics_args = format!("<{}>", strip_bounds(inner));
    }
    let body_group = loop {
        match &tokens[i] {
            TokenTree::Group(g) if g.delimiter() == Delimiter::Brace => break g,
            TokenTree::Punct(p) if p.as_char() == ';' => {
                panic!("serde_derive shim: unit/tuple structs are not supported");
            }
            // `where` clauses would land here; none exist in this workspace.
            TokenTree::Ident(id) if id.to_string() == "where" => {
                panic!("serde_derive shim: where clauses are not supported");
            }
            _ => i += 1,
        }
    };
    let body = if is_struct {
        Body::Struct(parse_fields(body_group.stream()))
    } else {
        Body::Enum(parse_variants(body_group.stream()))
    };
    Item {
        name,
        generics_full,
        generics_args,
        body,
    }
}

// ---------------------------------------------------------------------
// Codegen
// ---------------------------------------------------------------------

fn gen_serialize(item: &Item) -> String {
    let mut body = String::new();
    match &item.body {
        Body::Struct(fields) => {
            body.push_str(
                "let mut __fields: ::std::vec::Vec<(::std::string::String, ::serde::Value)> \
                 = ::std::vec::Vec::new();\n",
            );
            for f in fields {
                let push = format!(
                    "__fields.push((::std::string::String::from(\"{n}\"), \
                     ::serde::Serialize::to_value(&self.{n})));\n",
                    n = f.name
                );
                match &f.skip_if {
                    Some(path) => {
                        body.push_str(&format!("if !{path}(&self.{}) {{ {push} }}\n", f.name));
                    }
                    None => body.push_str(&push),
                }
            }
            body.push_str("::serde::Value::Object(__fields)\n");
        }
        Body::Enum(variants) => {
            body.push_str("match self {\n");
            for v in variants {
                match &v.fields {
                    None => {
                        body.push_str(&format!(
                            "{ty}::{v} => ::serde::Value::String(\
                             ::std::string::String::from(\"{v}\")),\n",
                            ty = item.name,
                            v = v.name
                        ));
                    }
                    Some(fields) => {
                        let bindings: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                        body.push_str(&format!(
                            "{ty}::{v} {{ {binds} }} => {{\n\
                             let mut __inner: ::std::vec::Vec<(::std::string::String, \
                             ::serde::Value)> = ::std::vec::Vec::new();\n",
                            ty = item.name,
                            v = v.name,
                            binds = bindings.join(", ")
                        ));
                        for f in fields {
                            let push = format!(
                                "__inner.push((::std::string::String::from(\"{n}\"), \
                                 ::serde::Serialize::to_value({n})));\n",
                                n = f.name
                            );
                            match &f.skip_if {
                                Some(path) => {
                                    body.push_str(&format!("if !{path}({}) {{ {push} }}\n", f.name))
                                }
                                None => body.push_str(&push),
                            }
                        }
                        body.push_str(&format!(
                            "::serde::Value::Object(::std::vec![(\
                             ::std::string::String::from(\"{v}\"), \
                             ::serde::Value::Object(__inner))])\n}}\n",
                            v = v.name
                        ));
                    }
                }
            }
            body.push_str("}\n");
        }
    }
    format!(
        "impl{gf} ::serde::Serialize for {name}{ga} {{\n\
         fn to_value(&self) -> ::serde::Value {{\n{body}}}\n}}\n",
        gf = item.generics_full,
        ga = item.generics_args,
        name = item.name,
        body = body
    )
}

// ---------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------

/// Derive the shim `serde::Serialize`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item)
        .parse()
        .expect("serde_derive shim: generated Serialize impl failed to parse")
}
