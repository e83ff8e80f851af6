//! Strict hex decoding for the text codecs (proofs, manifests).
//!
//! Every encoder in the workspace writes two lowercase digits per byte,
//! so the decoders accept exactly that and nothing else: no uppercase,
//! no sign, no whitespace, no odd length. A decoder that accepted more
//! (`u8::from_str_radix` takes `A–F` and a leading `+`) would give one
//! signed payload several texts, and a text that verifies would then
//! re-encode differently.
//!
//! ```
//! use lateral_crypto::hex;
//!
//! assert_eq!(hex::decode("00ff7f"), Some(vec![0x00, 0xff, 0x7f]));
//! assert_eq!(hex::decode_array::<2>("beef"), Some([0xbe, 0xef]));
//! assert_eq!(hex::decode("BEEF"), None);
//! assert_eq!(hex::decode("+f"), None);
//! ```

/// The value of one lowercase hex digit.
fn nibble(digit: u8) -> Option<u8> {
    match digit {
        b'0'..=b'9' => Some(digit - b'0'),
        b'a'..=b'f' => Some(digit - b'a' + 10),
        _ => None,
    }
}

/// Decodes `s` into `out`, which must be exactly half its length.
fn decode_into(s: &str, out: &mut [u8]) -> Option<()> {
    let digits = s.as_bytes();
    if digits.len() != 2 * out.len() {
        return None;
    }
    for (byte, pair) in out.iter_mut().zip(digits.chunks_exact(2)) {
        *byte = (nibble(pair[0])? << 4) | nibble(pair[1])?;
    }
    Some(())
}

/// Decodes lowercase hex of exactly `2 * N` digits into `N` bytes;
/// `None` for any other length or any byte outside `0-9a-f`.
#[must_use]
pub fn decode_array<const N: usize>(s: &str) -> Option<[u8; N]> {
    let mut out = [0u8; N];
    decode_into(s, &mut out)?;
    Some(out)
}

/// Decodes lowercase hex of even length into bytes; `None` for an odd
/// length or any byte outside `0-9a-f`.
#[must_use]
pub fn decode(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let mut out = vec![0u8; s.len() / 2];
    decode_into(s, &mut out)?;
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decodes_every_byte_value() {
        let text: String = (0..=255u8).map(|b| format!("{b:02x}")).collect();
        let bytes: Vec<u8> = (0..=255u8).collect();
        assert_eq!(decode(&text), Some(bytes.clone()));
        assert_eq!(decode_array::<256>(&text).map(|a| a.to_vec()), Some(bytes));
        assert_eq!(decode(""), Some(Vec::new()));
        assert_eq!(decode_array::<0>(""), Some([]));
    }

    #[test]
    fn refuses_what_from_str_radix_accepts() {
        // `u8::from_str_radix` reads each of these pairs as a byte.
        for bad in ["AB", "aB", "Ab", "+a", "+0"] {
            assert_eq!(decode(bad), None, "{bad}");
            assert_eq!(decode_array::<1>(bad), None, "{bad}");
        }
        for bad in ["0g", " 0", "0 ", "-1", "é"] {
            assert_eq!(decode(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn refuses_wrong_lengths() {
        assert_eq!(decode("abc"), None);
        assert_eq!(decode_array::<2>("abc"), None);
        assert_eq!(decode_array::<2>("ab"), None);
        assert_eq!(decode_array::<2>("abcdef"), None);
    }
}
