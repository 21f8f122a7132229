//! End-to-end integration tests across every crate: attestation, sealed
//! weights, functional generation, performance estimation, and the
//! security properties that motivate the whole system.

use confidential_llms_in_tees::core::pipeline::{
    ConfidentialPipeline, DeploymentSpec, PipelineError,
};
use confidential_llms_in_tees::core::{EncryptedModel, ModelOwner};
use confidential_llms_in_tees::infer::model::{TinyConfig, TinyModel};
use confidential_llms_in_tees::tee::attestation::Measurement;
use confidential_llms_in_tees::tee::platform::{CpuTeeConfig, Platform, TeeKind};
use confidential_llms_in_tees::tee::session::enclave_respond;
use confidential_llms_in_tees::workload::phase::RequestSpec;

#[test]
fn full_deployment_on_all_platforms() {
    for platform in TeeKind::ALL.map(Platform::preset) {
        let label = platform.label();
        let spec = DeploymentSpec::tiny_demo(platform);
        let p = ConfidentialPipeline::deploy(&spec)
            .unwrap_or_else(|e| panic!("{label}: deploy failed: {e}"));
        let text = p.generate("integration test", 8);
        assert!(!text.is_empty(), "{label}: no output");
        let est = p.estimate(&RequestSpec::new(1, 256, 16));
        assert!(est.decode_tps > 0.0, "{label}: no throughput estimate");
    }
}

#[test]
fn tee_identity_does_not_change_output() {
    // The functional result must be independent of the TEE — TEEs protect
    // execution, they do not alter it.
    let outputs: Vec<String> = [
        Platform::Cpu(CpuTeeConfig::bare_metal()),
        Platform::Cpu(CpuTeeConfig::sgx()),
        Platform::Cpu(CpuTeeConfig::tdx()),
        Platform::preset(TeeKind::GpuCc),
    ]
    .into_iter()
    .map(|pf| {
        ConfidentialPipeline::deploy(&DeploymentSpec::tiny_demo(pf))
            .expect("deploys")
            .generate("determinism probe", 16)
    })
    .collect();
    for o in &outputs[1..] {
        assert_eq!(o, &outputs[0]);
    }
}

#[test]
fn weight_theft_is_prevented() {
    // An attacker with the encrypted artifact but no attested enclave
    // cannot read the weights (the Figure 1 threat).
    let model = TinyModel::init(&TinyConfig::test_small(), 9);
    let golden = Measurement([7u8; 32]);
    let mut owner = ModelOwner::new(b"hw-root", golden, 5, b"seed");
    let artifact: EncryptedModel = owner.encrypt_model(&model).unwrap();

    // Brute key guesses fail authentication:
    for guess in [[0u8; 16], [0xFFu8; 16]] {
        assert!(ModelOwner::decrypt_model(&guess, &artifact).is_err());
    }
    // A session answered by a *different* enclave releases no key:
    let (verifier, challenge) = owner.begin_session();
    let (evil, _) =
        enclave_respond(b"hw-root", Measurement([66u8; 32]), 9, &challenge, b"evil").unwrap();
    assert!(owner.release_key_secure(&verifier, &evil).is_err());
    // The legitimate enclave's session does, sealed to its channel:
    let (verifier, challenge) = owner.begin_session();
    let (good, mut enclave) = enclave_respond(b"hw-root", golden, 9, &challenge, b"good").unwrap();
    let (_, record) = owner.release_key_secure(&verifier, &good).unwrap();
    let key: [u8; 16] = enclave.recv(&record).unwrap().try_into().unwrap();
    assert_eq!(ModelOwner::decrypt_model(&key, &artifact).unwrap(), model);
}

#[test]
fn tcb_policy_blocks_deployment() {
    let mut spec = DeploymentSpec::tiny_demo(Platform::Cpu(CpuTeeConfig::tdx()));
    spec.min_svn = 200;
    match ConfidentialPipeline::deploy(&spec) {
        Err(PipelineError::Owner(_)) => {}
        other => panic!("expected attestation failure, got {other:?}"),
    }
}

#[test]
fn estimates_order_platforms_correctly() {
    // bare < VM < SGX < TDX in token latency; GPU fastest of all.
    let req = RequestSpec::new(1, 1024, 32);
    let lat = |pf: Platform| {
        ConfidentialPipeline::deploy(&DeploymentSpec::tiny_demo(pf))
            .expect("deploys")
            .estimate(&req)
            .token_latency_s
    };
    let bare = lat(Platform::Cpu(CpuTeeConfig::bare_metal()));
    let vm = lat(Platform::Cpu(CpuTeeConfig::vm()));
    let sgx = lat(Platform::Cpu(CpuTeeConfig::sgx()));
    let tdx = lat(Platform::Cpu(CpuTeeConfig::tdx()));
    let gpu = lat(Platform::preset(TeeKind::GpuCc));
    assert!(
        bare < vm && vm < sgx && sgx < tdx,
        "{bare} {vm} {sgx} {tdx}"
    );
    assert!(gpu < bare / 3.0, "H100 should dominate raw CPU latency");
}

#[test]
fn int8_deployment_workflow() {
    use confidential_llms_in_tees::hw::DType;
    let mut spec = DeploymentSpec::tiny_demo(Platform::Cpu(CpuTeeConfig::tdx()));
    spec.dtype = DType::Int8;
    let p = ConfidentialPipeline::deploy(&spec).unwrap();
    assert!(!p.generate("quantized path", 6).is_empty());
    // int8 halves next-token latency vs bf16 (Figure 4).
    let req = RequestSpec::new(1, 1024, 16);
    let int8 = p.estimate(&req).token_latency_s;
    let bf16 = ConfidentialPipeline::deploy(&DeploymentSpec::tiny_demo(Platform::Cpu(
        CpuTeeConfig::tdx(),
    )))
    .unwrap()
    .estimate(&req)
    .token_latency_s;
    let ratio = bf16 / int8;
    assert!((1.4..2.6).contains(&ratio), "int8 latency ratio {ratio}");
}

#[test]
fn confidential_session_migration() {
    // A live inference session's KV cache is sealed under the enclave
    // identity, "migrated", unsealed by an enclave with the same
    // measurement, and generation continues bit-identically.
    use confidential_llms_in_tees::infer::model::{KvCache, TinyConfig, TinyModel};
    use confidential_llms_in_tees::tee::enclave::Enclave;
    use confidential_llms_in_tees::tee::manifest::Manifest;

    let manifest = Manifest::builder("session-host")
        .trusted_file("runtime", b"v1")
        .build();
    let source = Enclave::launch(&manifest, b"hw").unwrap();
    let target = Enclave::launch(&manifest, b"hw").unwrap();

    let model = TinyModel::init(&TinyConfig::test_small(), 4);
    let mut cache = model.new_cache();
    for t in [1usize, 2, 3, 4, 5] {
        let _ = model.forward(t, &mut cache);
    }
    // Seal on the source, unseal on the (identical) target.
    let sealed = source.seal("kv-session-17", &cache.to_bytes(), b"migration");
    let restored_bytes = target.unseal(&sealed).unwrap();
    let mut restored = KvCache::from_bytes(&restored_bytes).unwrap();
    let mut original = cache.clone();
    assert_eq!(
        model.forward(9, &mut original),
        model.forward(9, &mut restored),
        "migrated session must continue identically"
    );

    // A different enclave (different measurement) cannot hijack the session.
    let other_manifest = Manifest::builder("session-host")
        .trusted_file("runtime", b"v2-evil")
        .build();
    let thief = Enclave::launch(&other_manifest, b"hw").unwrap();
    assert!(thief.unseal(&sealed).is_err());
}

#[test]
fn manifest_text_drives_real_enclave() {
    // Parse a Figure-2-style manifest and launch an enclave from it.
    use confidential_llms_in_tees::crypto::sha256::{sha256, to_hex};
    use confidential_llms_in_tees::tee::enclave::Enclave;
    use confidential_llms_in_tees::tee::manifest_text::parse_manifest;

    let hash = to_hex(&sha256(b"runtime-bytes"));
    let text = format!(
        "libos.entrypoint = \"/usr/bin/cllm-serve\"\n\
         sgx.enclave_size = \"64G\"\n\
         sgx.max_threads = 32\n\
         sgx.trusted_files = [ {{ uri = \"file:/opt/runtime.so\", sha256 = \"{hash}\" }} ]\n\
         fs.mounts = [ {{ type = \"encrypted\", path = \"/model\", key_name = \"weights-key\" }} ]\n"
    );
    let manifest = parse_manifest(&text).unwrap();
    let enclave = Enclave::launch(&manifest, b"hw").unwrap();
    assert!(enclave
        .open_trusted("/opt/runtime.so", b"runtime-bytes")
        .is_ok());
    assert!(enclave
        .open_trusted("/opt/runtime.so", b"tampered")
        .is_err());
    // The measurement derives from the parsed manifest and pins the text.
    let again = parse_manifest(&text).unwrap();
    assert_eq!(manifest.measurement(), again.measurement());
}
