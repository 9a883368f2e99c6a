//! One module per experiment; see the crate docs for the index.

pub mod a1;
pub mod a2;
pub mod e1;
pub mod e10;
pub mod e11;
pub mod e12;
pub mod e2;
pub mod e3;
pub mod e4;
pub mod e5;
pub mod e6;
pub mod e7;
pub mod e8;
pub mod e9;
pub mod h1;
pub mod h2;
pub mod h3;
pub mod h5;
pub mod h6;
pub mod h7;
pub mod h8;
