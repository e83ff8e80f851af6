//! The trusted-component programming model.
//!
//! A component is written once against this trait and runs on any
//! substrate (§III-A). All of its interaction with the world flows through
//! the [`DomainContext`] it is handed — the POLA enforcement point: the
//! context only lets it use capabilities that were explicitly granted.
//!
//! [`DomainContext`]: crate::substrate::DomainContext

use std::error::Error;
use std::fmt;

use crate::cap::Badge;
use crate::substrate::DomainContext;

/// Application-level failure returned by a component.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ComponentError(pub String);

impl ComponentError {
    /// Creates an error with the given message.
    pub fn new(msg: impl Into<String>) -> ComponentError {
        ComponentError(msg.into())
    }
}

impl fmt::Display for ComponentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "component error: {}", self.0)
    }
}

impl Error for ComponentError {}

/// One incoming invocation, as delivered by the substrate.
#[derive(Debug)]
pub struct Invocation<'a> {
    /// The kernel-provided badge of the channel the caller used. This is
    /// the *only* trustworthy client identity — never parse identity out
    /// of `data` (that is how confused deputies are made, §III-C).
    pub badge: Badge,
    /// The request payload.
    pub data: &'a [u8],
}

/// A trusted component: the unit of horizontal application design.
///
/// Implementations must be substrate-agnostic — everything they need
/// comes through the [`DomainContext`]. They are `Send`, so the engine
/// hosting them can run on another thread than the one that built it.
pub trait Component: Send {
    /// Short stable label (used in logs, manifests, and measurements).
    fn label(&self) -> &str;

    /// Called once after the domain is created, before any invocation.
    ///
    /// # Errors
    ///
    /// Returning an error aborts the spawn.
    fn on_start(&mut self, ctx: &mut dyn DomainContext) -> Result<(), ComponentError> {
        let _ = ctx;
        Ok(())
    }

    /// Handles one synchronous invocation and produces the reply.
    ///
    /// # Errors
    ///
    /// Application-level failures are reported to the caller as
    /// [`crate::SubstrateError::ComponentFailure`].
    fn on_call(
        &mut self,
        ctx: &mut dyn DomainContext,
        inv: Invocation<'_>,
    ) -> Result<Vec<u8>, ComponentError>;
}

/// Adapter turning a closure into a [`Component`] — convenient for tests
/// and small experiment fixtures.
///
/// ```
/// use lateral_substrate::component::{FnComponent, Component, Invocation};
///
/// let mut c = FnComponent::new("upper", |_ctx, inv: Invocation<'_>| {
///     Ok(inv.data.to_ascii_uppercase())
/// });
/// assert_eq!(c.label(), "upper");
/// ```
pub struct FnComponent<F> {
    label: String,
    f: F,
}

impl<F> FnComponent<F>
where
    F: FnMut(&mut dyn DomainContext, Invocation<'_>) -> Result<Vec<u8>, ComponentError>,
{
    /// Wraps `f` as a component labeled `label`.
    pub fn new(label: &str, f: F) -> FnComponent<F> {
        FnComponent {
            label: label.to_string(),
            f,
        }
    }
}

impl<F> Component for FnComponent<F>
where
    F: FnMut(&mut dyn DomainContext, Invocation<'_>) -> Result<Vec<u8>, ComponentError> + Send,
{
    fn label(&self) -> &str {
        &self.label
    }

    fn on_call(
        &mut self,
        ctx: &mut dyn DomainContext,
        inv: Invocation<'_>,
    ) -> Result<Vec<u8>, ComponentError> {
        (self.f)(ctx, inv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn component_error_displays() {
        let e = ComponentError::new("parse failed");
        assert!(e.to_string().contains("parse failed"));
    }

    #[test]
    fn fn_component_has_label() {
        let c = FnComponent::new("echo", |_ctx, inv: Invocation<'_>| Ok(inv.data.to_vec()));
        assert_eq!(c.label(), "echo");
    }
}
