//! The confidential request path, composed from the real stack.
//!
//! The model owner prepares its artifacts once per run: a Gramine-style
//! manifest, the AES-GCM-encrypted weights, a BPE tokenizer and (for RAG)
//! the Figure 14 BEIR-like corpus. A deployment launches the enclave from
//! the manifest, runs the attested key release, unseals and loads the
//! weights (quantizing them to int4 for `batch_int4`, deriving the int8
//! draft for `spec_int8`) and, for RAG, indexes the corpus. Each request
//! then follows the path a client would see:
//!
//! 1. `session` — attested handshake (`cllm_tee::session`): challenge,
//!    quote bound to the DH transcript, verification, key derivation.
//! 2. `client` — the client seals its request record and later opens
//!    every response record.
//! 3. `frame_open` — the enclave opens the request record.
//! 4. `retrieve` — RAG only: BM25 top-5 over the corpus (`cllm_rag`).
//! 5. `tokenize` — BPE encode of the (augmented) prompt.
//! 6. `prefill` — one chunked forward over the prompt (`cllm_infer`).
//! 7. `decode` — one forward per further token (batched for
//!    `batch_int4`).
//! 8. `speculate` — `spec_int8` only, in place of prefill and decode:
//!    `cllm_infer::speculative::speculative_generate`.
//! 9. `frame_seal` — the enclave seals one record per generated token
//!    (per decode step for a batch), plus a citation record for RAG.
//!
//! Greedy decoding makes every output checkable: after the timed window
//! each kept operation is compared with `cllm_infer::generate::generate`
//! on the owner's own copy of the model (f32 for `spec_int8`, so
//! speculative output must be token-identical to vanilla decode), fed the
//! prompt as the client would rebuild it; RAG citations must equal the
//! owner's own retrieval.

use crate::inputs::{lengths, prompt_of, words, Lengths, Rng};
use crate::trace::Tracer;
use crate::{Op, Workload};
use cllm_core::experiments::spec_decode::DRAFT_K;
use cllm_core::owner::{EncryptedModel, ModelOwner};
use cllm_infer::generate::{generate, Sampling};
use cllm_infer::kernels::argmax;
use cllm_infer::model::{KvCache, TinyConfig, TinyModel};
use cllm_infer::speculative::speculative_generate;
use cllm_infer::tokenizer::BpeTokenizer;
use cllm_rag::{RagConfig, RagPipeline};
use cllm_retrieval::beir::{self, BeirSpec};
use cllm_tee::attestation::Measurement;
use cllm_tee::enclave::Enclave;
use cllm_tee::manifest::Manifest;
use cllm_tee::session::{enclave_respond, SecureChannel, Verifier};

const HW_ROOT: &[u8] = b"confbench-hw-root";
const SVN: u16 = 7;
const MIN_SVN: u16 = 5;
/// Deployment artifacts are the same in every run; only traffic varies
/// with `--seed`.
const ARTIFACT_SEED: u64 = 0x00C0_FFEE;
const TOKENIZER_MERGES: usize = 384;
/// Context of the served model: the longest prompt (a RAG prompt of five
/// documents, or a capped chat prompt), the longest answer and a draft
/// window fit.
const MAX_SEQ: usize = 1024;
/// Sequences per `batch_int4` operation: the smallest batch above one in
/// the paper's batch sweeps (Figures 8 and 9) and the batch shape of the
/// repository's `bench_infer`.
const BATCH: u64 = 4;

/// Which traffic the request path serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Conversations, one attested session each, f32 weights.
    Chat,
    /// A question answered over retrieved documents: long prompt.
    Rag,
    /// A batch of conversations per session decoded together on int4
    /// weights.
    BatchInt4,
    /// Conversations decoded speculatively with an int8 draft.
    SpecInt8,
}

/// A Llama-shaped decoder small enough that a chat request takes a
/// fraction of a second on one core, yet large enough that its f32
/// weights (3.4 MiB) stream from beyond L2.
fn model_config(vocab: usize) -> TinyConfig {
    TinyConfig {
        hidden: 128,
        layers: 4,
        heads: 4,
        kv_heads: 2,
        intermediate: 352,
        vocab,
        max_seq: MAX_SEQ,
        rope_theta: 10000.0,
        eps: 1e-5,
    }
}

/// An operation kept for the reference check.
struct Served {
    /// The prompt text of each sequence (the question, for RAG).
    prompts: Vec<String>,
    /// Documents the enclave cited (RAG only).
    cited: Vec<u64>,
    /// Tokens the client received, per sequence.
    got: Vec<Vec<usize>>,
}

/// The deployed enclave side.
struct Service {
    enclave: Enclave,
    model: TinyModel,
    /// The int8 draft of `model` (`spec_int8` only).
    draft: Option<TinyModel>,
    tokenizer: BpeTokenizer,
    rag: Option<RagPipeline>,
}

pub struct RequestBench {
    traffic: Traffic,
    seed: u64,
    manifest: Manifest,
    owner: ModelOwner,
    encrypted: EncryptedModel,
    tokenizer: BpeTokenizer,
    /// `(id, text)` of the RAG corpus and its questions.
    docs: Vec<(u64, String)>,
    queries: Vec<String>,
    /// The owner's plaintext model in the deployed format (f32 for
    /// `spec_int8`: speculation must not change the output).
    reference: TinyModel,
    /// The owner's own index of the corpus (RAG only).
    reference_rag: Option<RagPipeline>,
    /// The measurement clients pin when they attest the enclave.
    golden: Measurement,
    service: Option<Service>,
    checks: Vec<Served>,
}

fn rag_index(docs: &[(u64, String)]) -> RagPipeline {
    let mut rag = RagPipeline::new(RagConfig::default());
    rag.ingest(docs.iter().map(|(id, text)| (*id, text.as_str())));
    rag
}

fn rag_prompt(docs: &[&str], question: &str) -> String {
    let mut prompt = String::new();
    for (i, doc) in docs.iter().enumerate() {
        prompt.push_str(&format!("[{i}] {doc}\n"));
    }
    prompt.push_str(&format!("Q: {question}\nA:"));
    prompt
}

impl RequestBench {
    /// The model owner's one-time preparation (not part of set-up).
    pub fn new(traffic: Traffic, seed: u64) -> Result<Self, String> {
        let data = beir::generate(&BeirSpec::default());
        let training = format!(
            "{} {}",
            data.docs
                .iter()
                .step_by(5)
                .map(|d| d.1.as_str())
                .collect::<Vec<_>>()
                .join(" "),
            words(&mut Rng::new(ARTIFACT_SEED), 1500)
        );
        let tokenizer = BpeTokenizer::train(&training, TOKENIZER_MERGES);
        let plain = TinyModel::init(&model_config(256 + TOKENIZER_MERGES), ARTIFACT_SEED);
        let manifest = Manifest::builder("cllm-infer-server")
            .enclave_size_gib(16)
            .threads(1)
            .trusted_file("libcllm_infer.so", b"confbench-runtime")
            .encrypted_file("model.bin", "weights-key")
            .build();
        manifest.validate().map_err(|e| format!("manifest: {e}"))?;
        let golden = manifest.measurement();
        let mut owner = ModelOwner::new(HW_ROOT, golden, MIN_SVN, b"owner-hsm");
        let encrypted = owner
            .encrypt_model(&plain)
            .map_err(|e| format!("encrypt model: {e}"))?;
        let reference = if traffic == Traffic::BatchInt4 {
            plain.quantized4()
        } else {
            plain
        };
        let reference_rag = (traffic == Traffic::Rag).then(|| rag_index(&data.docs));
        Ok(RequestBench {
            traffic,
            seed,
            manifest,
            owner,
            encrypted,
            tokenizer,
            docs: data.docs,
            queries: data.queries.into_iter().map(|q| q.1).collect(),
            reference,
            reference_rag,
            golden,
            service: None,
            checks: Vec::new(),
        })
    }

    /// A chat prompt of about `len.prompt` tokens.
    fn chat_prompt(&self, rng: &mut Rng, len: Lengths) -> String {
        prompt_of(rng, len.prompt, |text| self.tokenizer.encode(text).len())
    }

    fn chat(&mut self, op: Op, tracer: &mut Tracer) -> Result<(f64, f64), String> {
        let len = lengths(op.slot, self.strata());
        let prompt = self.chat_prompt(&mut Rng::stream(self.seed, 1, op.k), len);
        let golden = self.golden;
        let traffic = self.traffic;
        let svc = self.service.as_ref().ok_or("not deployed")?;
        let (got, secs) = tracer.op("request", |t| -> Result<Vec<usize>, String> {
            let (mut client, mut server) = t.layer("session", || open_session(svc, golden, op.k))?;
            let record = t.layer("client", || client.send(prompt.as_bytes()));
            let text = t
                .layer("frame_open", || server.recv(&record))
                .map_err(|e| e.to_string())?;
            let text = String::from_utf8(text).map_err(|_| "request is not UTF-8")?;
            let ids = t.layer("tokenize", || svc.tokenizer.encode(&text));
            if traffic == Traffic::SpecInt8 {
                stream_spec(svc, &ids, len.output, &mut server, &mut client, t)
            } else {
                stream(svc, &ids, len.output, &mut server, &mut client, t)
            }
        });
        let got = got?;
        #[allow(clippy::cast_precision_loss)]
        let tokens = got.len() as f64;
        if op.check {
            self.checks.push(Served {
                prompts: vec![prompt],
                cited: Vec::new(),
                got: vec![got],
            });
        }
        Ok((tokens, secs))
    }

    fn rag(&mut self, op: Op, tracer: &mut Tracer) -> Result<(f64, f64), String> {
        let mut rng = Rng::stream(self.seed, 2, op.k);
        let query = &self.queries[rng.range(0, self.queries.len() - 1)];
        let question = format!("{query} {}", words(&mut rng, 3));
        let n_out = lengths(op.slot, self.strata()).output;
        let golden = self.golden;
        let svc = self.service.as_ref().ok_or("not deployed")?;
        let rag = svc.rag.as_ref().ok_or("no corpus deployed")?;
        let (out, secs) = tracer.op("request", |t| -> Result<(Vec<u64>, Vec<usize>), String> {
            let (mut client, mut server) = t.layer("session", || open_session(svc, golden, op.k))?;
            let record = t.layer("client", || client.send(question.as_bytes()));
            let text = t
                .layer("frame_open", || server.recv(&record))
                .map_err(|e| e.to_string())?;
            let text = String::from_utf8(text).map_err(|_| "request is not UTF-8")?;
            let (ids, prompt) = t.layer("retrieve", || {
                let hits = rag.retrieve(&text);
                let ids: Vec<u64> = hits.iter().map(|h| h.doc).collect();
                let docs: Vec<&str> = ids
                    .iter()
                    .map(|&d| rag.engine().get(d).unwrap_or(""))
                    .collect();
                (ids, rag_prompt(&docs, &text))
            });
            let citations: Vec<u8> = ids.iter().flat_map(|d| d.to_le_bytes()).collect();
            let record = t.layer("frame_seal", || server.send(&citations));
            let cited = t
                .layer("client", || client.recv(&record))
                .map_err(|e| e.to_string())?;
            let cited: Vec<u64> = cited
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
                .collect();
            let tokens = t.layer("tokenize", || svc.tokenizer.encode(&prompt));
            t.count("retrievals", 1.0);
            t.count("frames", 1.0);
            let got = stream(svc, &tokens, n_out, &mut server, &mut client, t)?;
            Ok((cited, got))
        });
        let (cited, got) = out?;
        if cited.len() != RagConfig::default().top_k {
            return Err(format!("retrieval cited {} documents", cited.len()));
        }
        #[allow(clippy::cast_precision_loss)]
        let tokens = got.len() as f64;
        if op.check {
            self.checks.push(Served {
                prompts: vec![question],
                cited,
                got: vec![got],
            });
        }
        Ok((tokens, secs))
    }

    fn batch(&mut self, op: Op, tracer: &mut Tracer) -> Result<(f64, f64), String> {
        // Every batch holds one request of each length stratum, so
        // batches differ only in content.
        let mut rng = Rng::stream(self.seed, 3, op.k);
        let requests: Vec<(String, usize)> = (0..BATCH)
            .map(|b| {
                let len = lengths(b, BATCH);
                (self.chat_prompt(&mut rng, len), len.output)
            })
            .collect();
        let golden = self.golden;
        let svc = self.service.as_ref().ok_or("not deployed")?;
        let (got, secs) = tracer.op("batch", |t| -> Result<Vec<Vec<usize>>, String> {
            let (mut client, mut server) = t.layer("session", || open_session(svc, golden, op.k))?;
            let mut prompts = Vec::with_capacity(requests.len());
            for (prompt, _) in &requests {
                let record = t.layer("client", || client.send(prompt.as_bytes()));
                let text = t
                    .layer("frame_open", || server.recv(&record))
                    .map_err(|e| e.to_string())?;
                prompts.push(String::from_utf8(text).map_err(|_| "request is not UTF-8")?);
            }
            let ids: Vec<Vec<usize>> = prompts
                .iter()
                .map(|p| t.layer("tokenize", || svc.tokenizer.encode(p)))
                .collect();
            let budgets: Vec<usize> = requests.iter().map(|r| r.1).collect();
            stream_batch(svc, &ids, &budgets, &mut server, &mut client, t)
        });
        let got = got?;
        let tokens: usize = got.iter().map(Vec::len).sum();
        if op.check {
            self.checks.push(Served {
                prompts: requests.into_iter().map(|r| r.0).collect(),
                cited: Vec::new(),
                got,
            });
        }
        #[allow(clippy::cast_precision_loss)]
        Ok((tokens as f64, secs))
    }
}

impl Workload for RequestBench {
    /// Enough strata that the median over them moves smoothly, few
    /// enough that each is served two or more times in a 15-second window
    /// on one core: a chat request takes ~0.12 s, a RAG one ~0.2 s, a
    /// speculative one ~0.25 s and a batch ~0.5 s.
    fn strata(&self) -> u64 {
        match self.traffic {
            Traffic::Chat | Traffic::Rag | Traffic::SpecInt8 => 16,
            Traffic::BatchInt4 => 4,
        }
    }

    fn deploy(&mut self) -> Result<(), String> {
        self.service = None;
        let enclave =
            Enclave::launch(&self.manifest, HW_ROOT).map_err(|e| format!("launch: {e}"))?;
        let (verifier, challenge) = self.owner.begin_session();
        let (response, mut channel) =
            enclave_respond(HW_ROOT, enclave.measurement(), SVN, &challenge, b"deploy")
                .map_err(|e| format!("handshake: {e}"))?;
        let (_owner_channel, key_record) = self
            .owner
            .release_key_secure(&verifier, &response)
            .map_err(|e| format!("key release: {e}"))?;
        let key: [u8; 16] = channel
            .recv(&key_record)
            .map_err(|e| format!("key record: {e}"))?
            .as_slice()
            .try_into()
            .map_err(|_| "released key is not 16 bytes")?;
        let mut model = ModelOwner::decrypt_model(&key, &self.encrypted)
            .map_err(|e| format!("unseal weights: {e}"))?;
        if self.traffic == Traffic::BatchInt4 {
            model = model.quantized4();
        }
        let draft = (self.traffic == Traffic::SpecInt8).then(|| model.quantized());
        let rag = (self.traffic == Traffic::Rag).then(|| rag_index(&self.docs));
        self.service = Some(Service {
            enclave,
            model,
            draft,
            tokenizer: self.tokenizer.clone(),
            rag,
        });
        Ok(())
    }

    fn op(&mut self, op: Op, tracer: &mut Tracer) -> Result<(f64, f64), String> {
        match self.traffic {
            Traffic::Chat | Traffic::SpecInt8 => self.chat(op, tracer),
            Traffic::Rag => self.rag(op, tracer),
            Traffic::BatchInt4 => self.batch(op, tracer),
        }
    }

    fn verify(&mut self) -> u64 {
        let mut wrong = 0;
        for s in &self.checks {
            let mut ok = true;
            let mut docs = Vec::new();
            if let Some(rag) = &self.reference_rag {
                let question = s.prompts.first().map_or("", String::as_str);
                let expect: Vec<u64> = rag.retrieve(question).iter().map(|h| h.doc).collect();
                ok &= expect == s.cited;
                docs = s
                    .cited
                    .iter()
                    .map(|&d| rag.engine().get(d).unwrap_or(""))
                    .collect();
            }
            ok &= s.prompts.iter().zip(&s.got).all(|(prompt, got)| {
                let prompt = if docs.is_empty() {
                    prompt.clone()
                } else {
                    rag_prompt(&docs, prompt)
                };
                let ids = self.tokenizer.encode(&prompt);
                generate(&self.reference, &ids, got.len(), Sampling::Greedy, 0) == *got
            });
            if !ok {
                wrong += 1;
            }
        }
        wrong
    }
}

/// Attested handshake for one client; returns (client, enclave) channels.
fn open_session(
    svc: &Service,
    golden: Measurement,
    op: u64,
) -> Result<(SecureChannel, SecureChannel), String> {
    let seed = op.to_le_bytes();
    let (verifier, challenge) =
        Verifier::start(golden, HW_ROOT, &[b"client".as_slice(), &seed].concat());
    let (response, server) = enclave_respond(
        HW_ROOT,
        svc.enclave.measurement(),
        SVN,
        &challenge,
        &[b"enclave".as_slice(), &seed].concat(),
    )
    .map_err(|e| format!("handshake: {e}"))?;
    let client = verifier
        .finish(&response)
        .map_err(|e| format!("verify: {e}"))?;
    Ok((client, server))
}

fn token_id(bytes: &[u8]) -> Result<usize, String> {
    let pair: [u8; 2] = bytes
        .try_into()
        .map_err(|_| "token record is not 2 bytes")?;
    Ok(usize::from(u16::from_le_bytes(pair)))
}

fn token_bytes(token: usize) -> [u8; 2] {
    u16::try_from(token)
        .expect("vocabulary fits u16")
        .to_le_bytes()
}

fn check_fits(svc: &Service, prompt: usize, n_out: usize) -> Result<(), String> {
    if prompt == 0 || prompt + n_out > svc.model.config.max_seq {
        return Err(format!(
            "prompt of {prompt} tokens + {n_out} outputs does not fit"
        ));
    }
    Ok(())
}

/// Prefill, then decode and stream `n_out` greedy tokens, one sealed
/// record per token.
fn stream(
    svc: &Service,
    ids: &[usize],
    n_out: usize,
    server: &mut SecureChannel,
    client: &mut SecureChannel,
    t: &mut Tracer,
) -> Result<Vec<usize>, String> {
    check_fits(svc, ids.len(), n_out)?;
    let model = &svc.model;
    let mut cache = model.new_cache();
    let logits = t.layer("prefill", || model.forward_chunk(ids, &mut cache));
    let mut next = argmax(logits.row(logits.rows - 1));
    let mut got = Vec::with_capacity(n_out);
    for step in 0..n_out {
        let record = t.layer("frame_seal", || server.send(&token_bytes(next)));
        let opened = t
            .layer("client", || client.recv(&record))
            .map_err(|e| e.to_string())?;
        got.push(token_id(&opened)?);
        if step + 1 < n_out {
            let logits = t.layer("decode", || model.forward(next, &mut cache));
            next = argmax(&logits);
        }
    }
    #[allow(clippy::cast_precision_loss)]
    {
        t.count("sessions", 1.0);
        t.count("prompt_tokens", ids.len() as f64);
        t.count("decode_tokens", n_out.saturating_sub(1) as f64);
        t.count("output_tokens", n_out as f64);
        t.count("frames", (n_out + 1) as f64);
    }
    Ok(got)
}

/// Generate `n_out` greedy tokens speculatively — the int8 draft
/// proposes `DRAFT_K` tokens, the model verifies them in one chunked
/// forward — then stream them, one sealed record per token.
fn stream_spec(
    svc: &Service,
    ids: &[usize],
    n_out: usize,
    server: &mut SecureChannel,
    client: &mut SecureChannel,
    t: &mut Tracer,
) -> Result<Vec<usize>, String> {
    let k = usize::try_from(DRAFT_K).expect("draft window fits usize");
    check_fits(svc, ids.len(), n_out + k)?;
    let draft = svc.draft.as_ref().ok_or("no draft model deployed")?;
    let (out, stats) = t.layer("speculate", || {
        speculative_generate(&svc.model, draft, ids, n_out, k, Sampling::Greedy, 0)
    });
    if out.len() != n_out || stats.emitted() != n_out || stats.nonfinite_logits > 0 {
        return Err(format!(
            "speculative decode emitted {} of {n_out} tokens ({stats:?})",
            out.len()
        ));
    }
    let mut got = Vec::with_capacity(n_out);
    for &token in &out {
        let record = t.layer("frame_seal", || server.send(&token_bytes(token)));
        let opened = t
            .layer("client", || client.recv(&record))
            .map_err(|e| e.to_string())?;
        got.push(token_id(&opened)?);
    }
    #[allow(clippy::cast_precision_loss)]
    {
        t.count("sessions", 1.0);
        t.count("prompt_tokens", ids.len() as f64);
        t.count("spec_tokens", n_out as f64);
        t.count("spec_drafted", stats.drafted as f64);
        t.count("spec_accepted", stats.accepted as f64);
        t.count("output_tokens", n_out as f64);
        t.count("frames", (n_out + 1) as f64);
    }
    Ok(got)
}

/// Prefill each sequence, then decode all unfinished sequences together
/// in one batched forward per step; each step's tokens travel in one
/// sealed record of `(sequence, token)` pairs.
fn stream_batch(
    svc: &Service,
    ids: &[Vec<usize>],
    budgets: &[usize],
    server: &mut SecureChannel,
    client: &mut SecureChannel,
    t: &mut Tracer,
) -> Result<Vec<Vec<usize>>, String> {
    let model = &svc.model;
    let mut caches: Vec<KvCache> = Vec::with_capacity(ids.len());
    let mut next = Vec::with_capacity(ids.len());
    for (prompt, &n_out) in ids.iter().zip(budgets) {
        check_fits(svc, prompt.len(), n_out)?;
        let mut cache = model.new_cache();
        let logits = t.layer("prefill", || model.forward_chunk(prompt, &mut cache));
        next.push(argmax(logits.row(logits.rows - 1)));
        caches.push(cache);
    }
    let mut got: Vec<Vec<usize>> = budgets.iter().map(|&n| Vec::with_capacity(n)).collect();
    let mut frames = ids.len();
    let mut decoded = 0usize;
    loop {
        let mut payload = Vec::new();
        for (b, out) in got.iter().enumerate() {
            if out.len() < budgets[b] {
                payload.push(u8::try_from(b).expect("batch fits u8"));
                payload.extend_from_slice(&token_bytes(next[b]));
            }
        }
        if payload.is_empty() {
            break;
        }
        let record = t.layer("frame_seal", || server.send(&payload));
        let opened = t
            .layer("client", || client.recv(&record))
            .map_err(|e| e.to_string())?;
        frames += 1;
        for entry in opened.chunks(3) {
            let b = usize::from(entry[0]);
            let out = got.get_mut(b).ok_or("record names an unknown sequence")?;
            out.push(token_id(entry.get(1..3).ok_or("truncated record")?)?);
        }
        let live: Vec<usize> = (0..got.len())
            .filter(|&b| got[b].len() < budgets[b])
            .collect();
        if live.is_empty() {
            break;
        }
        let tokens: Vec<usize> = live.iter().map(|&b| next[b]).collect();
        let mut gathered: Vec<&mut KvCache> = caches
            .iter_mut()
            .enumerate()
            .filter(|(b, _)| live.contains(b))
            .map(|(_, c)| c)
            .collect();
        let logits = t.layer("decode", || model.forward_batch(&tokens, &mut gathered));
        for (row, &b) in live.iter().enumerate() {
            next[b] = argmax(logits.row(row));
        }
        decoded += live.len();
    }
    #[allow(clippy::cast_precision_loss)]
    {
        let prompt: usize = ids.iter().map(Vec::len).sum();
        t.count("sessions", 1.0);
        t.count("prompt_tokens", prompt as f64);
        t.count("decode_tokens", decoded as f64);
        t.count("output_tokens", budgets.iter().sum::<usize>() as f64);
        t.count("frames", frames as f64);
    }
    Ok(got)
}
