//! `repro --packets` rejects sizes outside 1..=10⁸ with the usage text and
//! exit code 2, before any sweep starts.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Exit code of `repro table1 --quick --packets <packets>`, or a failure if
/// it is still running after ten seconds.
fn exit_code(packets: &str) -> i32 {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["table1", "--quick", "--packets", packets])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn repro");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(status) = child.try_wait().expect("wait on repro") {
            return status.code().expect("repro exited by signal");
        }
        if Instant::now() > deadline {
            child.kill().expect("kill repro");
            let _ = child.wait();
            panic!("repro --packets {packets} still running after 10 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn packets_outside_one_to_a_hundred_million_exit_with_usage() {
    for packets in ["0", "100000001", "18446744073709551615"] {
        assert_eq!(exit_code(packets), 2, "--packets {packets}");
    }
}
