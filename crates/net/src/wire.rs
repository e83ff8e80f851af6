//! Wire encoding helpers: length-prefixed fields and raw fixed-width
//! ones.
//!
//! Handshake messages carry several variable-length fields; a tiny
//! reader/writer pair keeps the parsing honest (every read is bounds
//! checked — message parsing is exactly the attack surface the paper
//! wants isolated into its own component).

use crate::NetError;

/// Appends a `u32`-length-prefixed field.
pub fn put_field(out: &mut Vec<u8>, field: &[u8]) {
    out.extend_from_slice(&(field.len() as u32).to_le_bytes());
    out.extend_from_slice(field);
}

/// A bounds-checked reader over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps `data`.
    pub fn new(data: &'a [u8]) -> Reader<'a> {
        Reader { data, pos: 0 }
    }

    /// Reads a length-prefixed field.
    ///
    /// # Errors
    ///
    /// [`NetError::Decode`] when the prefix or body is truncated.
    pub fn field(&mut self) -> Result<&'a [u8], NetError> {
        let len_bytes = self
            .data
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| NetError::Decode("truncated length prefix".into()))?;
        let len = u32::from_le_bytes(len_bytes.try_into().expect("4 bytes")) as usize;
        self.pos += 4;
        let body = self
            .data
            .get(self.pos..self.pos + len)
            .ok_or_else(|| NetError::Decode("truncated field body".into()))?;
        self.pos += len;
        Ok(body)
    }

    /// Reads `N` raw bytes: a fixed-width field written without a
    /// length prefix.
    ///
    /// # Errors
    ///
    /// [`NetError::Decode`] on truncation.
    pub(crate) fn fixed<const N: usize>(&mut self) -> Result<[u8; N], NetError> {
        let bytes = self
            .data
            .get(self.pos..)
            .and_then(|rest| rest.first_chunk::<N>())
            .ok_or_else(|| NetError::Decode(format!("truncated {N}-byte field")))?;
        self.pos += N;
        Ok(*bytes)
    }

    /// Reads a length-prefixed field as a fixed-size array.
    ///
    /// # Errors
    ///
    /// [`NetError::Decode`] on truncation or size mismatch.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], NetError> {
        let f = self.field()?;
        f.try_into()
            .map_err(|_| NetError::Decode(format!("expected {N}-byte field, got {}", f.len())))
    }

    /// Whether all input was consumed.
    pub fn done(&self) -> bool {
        self.pos == self.data.len()
    }

    /// Requires all input to be consumed.
    ///
    /// # Errors
    ///
    /// [`NetError::Decode`] on trailing bytes.
    pub fn finish(self) -> Result<(), NetError> {
        if self.done() {
            Ok(())
        } else {
            Err(NetError::Decode("trailing bytes".into()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_fields() {
        let mut buf = Vec::new();
        put_field(&mut buf, b"alpha");
        put_field(&mut buf, b"");
        put_field(&mut buf, b"b");
        let mut r = Reader::new(&buf);
        assert_eq!(r.field().unwrap(), b"alpha");
        assert_eq!(r.field().unwrap(), b"");
        assert_eq!(r.field().unwrap(), b"b");
        r.finish().unwrap();
    }

    #[test]
    fn truncation_detected() {
        let mut buf = Vec::new();
        put_field(&mut buf, b"alpha");
        buf.truncate(buf.len() - 1);
        let mut r = Reader::new(&buf);
        assert!(r.field().is_err());
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut buf = Vec::new();
        put_field(&mut buf, b"x");
        buf.push(0);
        let mut r = Reader::new(&buf);
        r.field().unwrap();
        assert!(r.finish().is_err());
    }

    #[test]
    fn raw_fixed_fields_are_bounds_checked() {
        let mut r = Reader::new(&[1, 2, 3, 4, 5]);
        assert_eq!(r.fixed::<4>().unwrap(), [1, 2, 3, 4]);
        assert!(r.fixed::<2>().is_err());
        assert_eq!(r.fixed::<1>().unwrap(), [5]);
        r.finish().unwrap();
    }

    #[test]
    fn fixed_array_size_enforced() {
        let mut buf = Vec::new();
        put_field(&mut buf, &[1u8; 32]);
        let mut r = Reader::new(&buf);
        assert!(r.array::<31>().is_err());
        let mut r2 = Reader::new(&buf);
        assert_eq!(r2.array::<32>().unwrap(), [1u8; 32]);
    }
}
