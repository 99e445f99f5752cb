//! # colorbars-rs — Reed–Solomon error correction substrate
//!
//! ColorBars (paper Section 5) protects each packet with a Reed–Solomon code
//! sized to recover the symbols lost during the camera's *inter-frame gap*:
//! the camera spends part of every frame period reading out and processing
//! the previous frame, and every LED symbol transmitted in that window is
//! simply never captured. The link sizes that code from its own packet
//! budget (`colorbars_core::config::PacketBudget`); this crate is the codec.
//!
//! This crate is a from-scratch RS implementation over GF(2⁸):
//!
//! * [`gf256`] — the finite field (log/antilog tables over the `0x11D`
//!   primitive polynomial), with all axioms property-tested.
//! * [`poly`] — dense polynomial algebra over the field.
//! * [`code`] — systematic encoder and full decoder: syndrome computation,
//!   Berlekamp–Massey with erasure initialization, Chien search and Forney's
//!   algorithm. Handles errors, erasures, and mixes of both up to the
//!   `2·errors + erasures ≤ n − k` bound.
//!
//! The paper counts n and k in *bits*; like every practical deployment we
//! encode over byte symbols.
//!
//! ```
//! use colorbars_rs::code::ReedSolomon;
//!
//! let rs = ReedSolomon::new(20, 14).unwrap(); // 6 parity bytes: fixes 3 errors
//! let data = *b"colorbars rule"; // k = 14 bytes
//! let mut cw = rs.encode(&data).unwrap();
//! cw[0] ^= 0xFF; cw[7] ^= 0x55; cw[19] ^= 0x0F; // three corrupted bytes
//! let decoded = rs.decode(&cw, &[]).unwrap();
//! assert_eq!(&decoded.data, &data);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![allow(clippy::should_implement_trait)] // named field ops (add/mul/div) on Gf256 are a deliberate API

pub mod code;
pub mod gf256;
pub mod poly;

pub use code::{DecodeError, Decoded, ReedSolomon};
pub use gf256::Gf256;
