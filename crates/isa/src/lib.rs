//! # mempool-isa
//!
//! The instruction set executed by MemPool's Snitch cores: the RV32IM base
//! (with the A-extension atomics needed for synchronization) plus the subset
//! of the `Xpulpimg` extension the paper's kernels rely on —
//! multiply-accumulate and post-incrementing loads/stores.
//!
//! The crate provides four layers:
//!
//! * [`Instr`] — a typed instruction representation with a binary
//!   [`encode`](Instr::encode) / [`decode`] round trip;
//! * [`Program::assemble`] — a small two-pass text assembler with labels
//!   and the common pseudo-instructions (`li`, `mv`, `j`, `beqz`, ...);
//! * [`exec`] — architectural execution semantics, split into an *issue*
//!   step (suitable for a timing simulator with split memory transactions)
//!   and a synchronous [`Machine`](exec::Machine) for golden-model runs;
//! * [`Program`] — a container binding assembled instructions to their
//!   label table.
//!
//! ## Example
//!
//! ```
//! use mempool_isa::{Program, exec::Machine};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = Program::assemble(
//!     r#"
//!         li   a0, 6
//!         li   a1, 7
//!         mul  a2, a0, a1
//!         wfi
//!     "#,
//! )?;
//! let mut machine = Machine::new(program, 64 * 1024);
//! machine.run(1_000)?;
//! assert_eq!(machine.reg("a2")?, 42);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod asm;
pub mod exec;
pub mod instr;
pub(crate) mod program;
pub(crate) mod reg;

pub use asm::AssembleError;
pub(crate) use instr::DecodeError;
pub use instr::{decode, Instr};
pub use program::Program;
pub use reg::{ParseRegError, Reg, RegFile};
