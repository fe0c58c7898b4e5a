//! Run metadata for the JSON records the workspace's binaries emit.

/// The commit a measurement run describes: `GITHUB_SHA` in CI, `git
/// rev-parse HEAD` in a local checkout, `"unknown"` elsewhere.
///
/// `query_server` stamps it on the throughput record and on
/// `SERVE_metrics.json`, so the two join on the same key.
pub fn git_commit() -> String {
    if let Ok(sha) = std::env::var("GITHUB_SHA") {
        if !sha.is_empty() {
            return sha;
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    #[test]
    fn git_commit_is_nonempty() {
        assert!(!super::git_commit().is_empty());
    }
}
