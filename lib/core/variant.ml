type t = {
  gen_receipts : bool;
  enable_checkpoints : bool;
  verify_client_sigs : bool;
  macs_only : bool;
  keep_ledger : bool;
  peerreview : bool;
  sign_commits : bool;
}

let full =
  {
    gen_receipts = true;
    enable_checkpoints = true;
    verify_client_sigs = true;
    macs_only = false;
    keep_ledger = true;
    peerreview = false;
    sign_commits = false;
  }

let no_receipt = { full with gen_receipts = false }
let peer_review = { full with peerreview = true }
let signed_commits = { full with sign_commits = true }
