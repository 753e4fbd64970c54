"""The one encoding chain: pinned fingerprints, store keys, certification.

Every constraint compiles with one chain (closed form when it fits,
otherwise the LP/MILP search), so these tests pin what callers rely on:

* **Byte-identity** — the compiler's output on every Table I family
  keeps the fingerprints it has had since before the pipeline existed
  (pinned at two sizes).
* **Store keys** — the template key's third part is the constant
  ``"penalty"`` name, and an on-disk entry whose echoed name disagrees
  with its key is a miss.
* **Certification** — the inequality family's default compile proves
  hard dominance.
"""

import json

import numpy as np
import pytest

from repro.analysis import certify_program
from repro.compile import build_template, template_key
from repro.compile.pipeline.store import TemplateStore
from repro.core import nck
from repro.problems import RedundantCover


# ---------------------------------------------------------------------------
# Pinned fingerprints: the compiled output stays byte-identical
# ---------------------------------------------------------------------------

#: ``_build_problem(family, n, 0).build_env().to_qubo()`` fingerprints.
#: They are those of the pre-pipeline compiler and must hold forever.
PINNED_FINGERPRINTS = {
    ("vertex-cover", 5): "d83b4fc893394d167fcc5fa056f9849c35d582a05373cc623d0bcb8ed2c45967",
    ("max-cut", 5): "59f5fbf081511890be2c3d1a3bddd8c58dc4fadd1f4fd9374f192825daabb830",
    ("clique-cover", 5): "048fcff0e83951622a4b5b6116f0b3a7013efa0c1525f04f3c2fcba33f540995",
    ("map-coloring", 5): "aac4dff0431f97a87f12d9a94d5ec6a6effb980039bdb0a84f455b28115044a5",
    ("exact-cover", 5): "09baec0b3b1aeeb93ad6f10e60937c609dbde1a12435e1888206231872670918",
    ("set-cover", 5): "90f34324fe6c30d8cf31b9d329c27b9fa3113eebc79bddde57a73f6672251eb4",
    ("3sat", 5): "705395caa0a6e18c399f6f80f190ee32e0bbb1a16a6d6421af1e129c27907f55",
    ("vertex-cover", 8): "a53d69a6d56c6101d4d3a9591f32a3d77e756e786465dc43ea9385278b293363",
    ("max-cut", 8): "0ccab42b953ca950afd2ca0a57dce96f920606b6d2e499f567b6351ca9962420",
    ("clique-cover", 8): "ff6c14f5dc0dd9e59fd9e86660185496829db871a2931c657821f84c87b78f7f",
    ("map-coloring", 8): "e3b64b8422ac01ec705afbd3f66cbd5819ec66095b627bcddc6c68260703fe37",
    ("exact-cover", 8): "533b419cb4410dd443ee03f50b302c473552e6b95278231673ee48ada7192a30",
    ("set-cover", 8): "f6fe3823eab90f5b35dadad056f82db78f6a3f000d460c8b838794658015aaac",
    ("3sat", 8): "61d97602a2e2eb69b8a3586026ec8bbd111f630b05f89cbd6e9ccb6b9149edc8",
    ("redundant-cover", 5): "eaa46460efbaab766ecc6bec3ae80d78f9086c6b8219c88d78da22d971de1db0",
    ("redundant-cover", 8): "85a3c790c0b1a38c2f09091f12dec1dde588a3917a83ffa06e624b94aae541f4",
}


class TestAutoIsByteIdentical:
    @pytest.mark.parametrize(
        "family,n",
        sorted(PINNED_FINGERPRINTS),
        ids=[f"{family}-{n}" for family, n in sorted(PINNED_FINGERPRINTS)],
    )
    def test_pinned_fingerprint(self, family, n):
        from repro.__main__ import _build_problem

        env = _build_problem(family, n, 0).build_env()
        compiled = env.to_qubo(disk_cache=False)
        assert compiled.fingerprint == PINNED_FINGERPRINTS[(family, n)]


# ---------------------------------------------------------------------------
# Template-store keys
# ---------------------------------------------------------------------------


class TestStoreStrategyIsolation:
    def setup_method(self):
        self.constraint = nck([f"v{i}" for i in range(4)], range(2, 5))

    def test_strategy_echo_mismatch_is_a_miss(self, tmp_path):
        store = TemplateStore(tmp_path / "t")
        template = build_template(self.constraint, False)
        key = template_key(self.constraint, False)
        assert store.store(key, template)
        path = store.path_for(key)
        payload = json.loads(path.read_text())
        payload["strategy"] = "slack-free"
        path.write_text(json.dumps(payload))
        assert store.load(key) is None, "tampered strategy echo must be a miss"

    def test_default_key_is_the_penalty_strategy(self):
        assert template_key(self.constraint, False)[2] == "penalty"
        assert build_template(self.constraint, False).strategy == "penalty"


# ---------------------------------------------------------------------------
# End-to-end: the inequality family certifies
# ---------------------------------------------------------------------------


@pytest.fixture()
def inequality_instance():
    return RedundantCover.random_satisfiable(6, 6, np.random.default_rng(7))


class TestInequalityEndToEnd:
    def test_certify_proves_hard_dominance(self, inequality_instance):
        env = inequality_instance.build_env()
        compiled = env.to_qubo(disk_cache=False)
        cert = certify_program(env, compiled)
        assert cert.verdict == "pass", cert.problems
        assert cert.dominance in ("proved", "enumerated-pass")
