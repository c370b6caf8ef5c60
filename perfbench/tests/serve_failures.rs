//! Refused requests and transport errors count as failed operations.

use perfbench::serve::{judge, Op, Plan, Service};
use perfbench::stats::Tally;
use tet_serve::Client;

#[test]
fn refused_and_unreachable_requests_count_as_failures() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("serve-failures");
    let svc = Service::start(dir).expect("server starts");
    let plan = Plan::new(3);
    let client = svc.client();
    let mut tally = Tally::default();

    // A good read returns its reference bytes.
    let read = Op::Read(0);
    let good = client.run_to_report(plan.body(&read));
    let refs = vec![good.as_ref().expect("warm spec runs").0.clone()];
    tally.record(judge(&read, &good, &refs));

    // The same read judged against different reference bytes fails.
    let wrong = vec!["{}".to_string()];
    tally.record(judge(&read, &good, &wrong));

    // A spec the server refuses (HTTP 400) fails.
    let refused = Op::Write("{\"kind\": \"no_such_kind\"}".to_string());
    let res = client.run_to_report(plan.body(&refused));
    assert!(res.is_err(), "the server refuses the spec");
    tally.record(judge(&refused, &res, &refs));
    drop(svc);

    // A server that is gone fails at the transport.
    let gone = Client::new(&format!("127.0.0.1:{}", free_port()));
    let res = gone.run_to_report(plan.body(&read));
    assert!(res.is_err());
    tally.record(judge(&read, &res, &refs));

    assert_eq!((tally.attempted, tally.failed), (4, 3));
    assert_eq!(tally.failed_ratio(), 0.75);
}

/// A port nothing listens on (bound, then released).
fn free_port() -> u16 {
    let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    l.local_addr().expect("addr").port()
}
