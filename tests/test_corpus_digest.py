"""The reports of the benchmark corpora, pinned by digest.

``bench/corpus.py`` generates the four workloads' corpora for seeds 1-3.
Every operation runs through ``cli.run``, and one SHA-256 per workload
covers each operation's label, report and exit code, in corpus order.  One
more SHA-256 covers the generated corpus itself (template and instance
text and the operations), so that a failure says whether the inputs or the
outputs moved.  A refactor keeps every report byte-identical; a change
that means to move a report updates its digest and says which reports
moved and why.
"""

from __future__ import annotations

import hashlib
import importlib
import sys
from pathlib import Path

import pytest

from orbitcsp import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"
SEEDS = (1, 2, 3)

CORPUS_SHA256 = "18287caea3fe391ea4ef780cde9ff6ef7db0b074facd250b6d25aebfc027d761"
REPORT_SHA256 = {
    "temporal-solve":
        "856582d935c91c7c1c2294a0e6061518557beffd136d54b5d1665f57c9990b9e",
    "kl-consistency":
        "fe2b43bb9bc388fe3032fc414f77b0b615d085079824765ddd9eb82c0750e8e6",
    "template-classify":
        "5d012bbbc22a1cfd549888037879e4e3481a9d16ccd86940cc48439b38b426de",
    "small-solve":
        "f47a84748d2b09674c83a2f36d5e2d6fdc2c52a8d8c3c508b82e96ddc7860420",
}


def _corpus_module():
    # corpus.py imports its sibling literals.py as a top-level module.
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    return importlib.import_module("corpus")


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    """Per (workload, seed): the generated corpus and each op's argv."""
    module = _corpus_module()
    out = {}
    for workload in module.WORKLOADS:
        for seed in SEEDS:
            generated = module.generate(workload, seed)
            directory = tmp_path_factory.mktemp(f"{workload}-{seed}")
            out[workload, seed] = generated, generated.write(directory)
    return out


def _feed(digest, *fields) -> None:
    for field in fields:
        data = str(field).encode("utf-8")
        digest.update(len(data).to_bytes(8, "big") + data)


def test_the_workloads_are_the_pinned_ones():
    assert tuple(REPORT_SHA256) == _corpus_module().WORKLOADS


def test_corpus_text_is_pinned(corpora):
    digest = hashlib.sha256()
    for (workload, seed), (generated, _) in corpora.items():
        _feed(digest, workload, seed)
        for key, template in generated.templates.items():
            _feed(digest, key, template.text())
        for key, instance in generated.instances.items():
            _feed(digest, key, instance.text())
        for op in generated.ops:
            _feed(digest, op.label, op.command, op.template, op.instance, op.flags)
    assert digest.hexdigest() == CORPUS_SHA256


@pytest.mark.parametrize("workload", list(REPORT_SHA256))
def test_reports_are_pinned(corpora, workload):
    digest = hashlib.sha256()
    for seed in SEEDS:
        generated, argvs = corpora[workload, seed]
        for op in generated.ops:
            report, code = cli.run(argvs[op.label])
            _feed(digest, seed, op.label, report, code)
    assert digest.hexdigest() == REPORT_SHA256[workload]
