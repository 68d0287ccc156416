//! Error type shared by all simulated devices.

use std::error::Error;
use std::fmt;

/// Errors returned by device operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DeviceError {
    /// A read or write touched addresses beyond the device capacity.
    OutOfBounds {
        /// First byte of the offending access.
        offset: u64,
        /// Length of the offending access.
        len: u64,
        /// Device capacity in bytes.
        capacity: u64,
    },
    /// The device is in the crashed state; I/O is rejected until
    /// [`recover`](crate::PersistentDevice::recover) is called.
    Crashed,
    /// The network peer is unreachable (remote node failed).
    PeerUnavailable,
    /// A read failed at the media level (an unreadable sector / injected
    /// read fault). Unlike [`Crashed`](Self::Crashed) the device stays up;
    /// only the faulted range is unreadable.
    ReadFault {
        /// First byte of the unreadable range.
        offset: u64,
    },
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::OutOfBounds {
                offset,
                len,
                capacity,
            } => write!(
                f,
                "access of {len} bytes at offset {offset} exceeds device capacity {capacity}"
            ),
            DeviceError::Crashed => write!(f, "device is crashed; recover() it first"),
            DeviceError::PeerUnavailable => write!(f, "network peer is unavailable"),
            DeviceError::ReadFault { offset } => {
                write!(f, "media read fault at offset {offset}")
            }
        }
    }
}

impl Error for DeviceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = DeviceError::OutOfBounds {
            offset: 10,
            len: 20,
            capacity: 16,
        };
        let msg = e.to_string();
        assert!(msg.contains("10") && msg.contains("20") && msg.contains("16"));
        assert!(DeviceError::Crashed.to_string().contains("crashed"));
        assert!(DeviceError::PeerUnavailable.to_string().contains("peer"));
        assert!(DeviceError::ReadFault { offset: 77 }
            .to_string()
            .contains("77"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync + std::error::Error>() {}
        assert_send_sync::<DeviceError>();
    }
}
