//! Offline stand-in for `serde_derive`: `#[derive(Serialize, Deserialize)]`
//! emit empty marker impls (see the `serde` stand-in) and accept
//! `#[serde(...)]` helper attributes. Written against `proc_macro` alone,
//! so it handles what the workspace has: non-generic structs and enums.

use proc_macro::{TokenStream, TokenTree};

/// The name of the struct/enum/union a derive input declares.
fn type_name(input: TokenStream) -> String {
    let mut tokens = input.into_iter();
    while let Some(tok) = tokens.next() {
        if let TokenTree::Ident(kw) = &tok {
            if matches!(kw.to_string().as_str(), "struct" | "enum" | "union") {
                let name = match tokens.next() {
                    Some(TokenTree::Ident(name)) => name.to_string(),
                    other => panic!("serde stand-in: expected a type name, found {other:?}"),
                };
                if let Some(TokenTree::Punct(p)) = tokens.next() {
                    assert!(
                        p.as_char() != '<',
                        "serde stand-in: generic type `{name}` is not supported"
                    );
                }
                return name;
            }
        }
    }
    panic!("serde stand-in: derive input is not a struct, enum or union");
}

/// Derive the `serde::Serialize` marker.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    format!("impl ::serde::Serialize for {} {{}}", type_name(input))
        .parse()
        .expect("generated impl parses")
}

/// Derive the `serde::Deserialize` marker.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    format!(
        "impl<'de> ::serde::Deserialize<'de> for {} {{}}",
        type_name(input)
    )
    .parse()
    .expect("generated impl parses")
}
