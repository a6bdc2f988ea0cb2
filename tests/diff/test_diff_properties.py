"""Property-based laws of the snapshot differ (hypothesis).

An arbitrary interleaving of ``commit``/``remember``/``recall`` (and
weight reloads) runs against a plain reference store of content keys.
Every recall must agree with the reference, which pins down:

1. **inheritance never flips a verdict** — for a model that is a pure
   function of region content (PERCIVAL's §3.2 property), every
   recalled verdict equals what re-classifying the region would have
   produced,
2. **changed content never recalls** — a hit needs the stored content
   key to equal the probed one,
3. **sessions stay isolated** — one session's writes never answer
   another session's (or another page's) probe,
4. **commit replaces, remember upserts** — a commit forgets the page's
   regions it does not list; a remember keeps every other region,
5. **generation** — a verdict stored under one ``weights_version``
   never answers under another.
"""

from hypothesis import given, settings, strategies as st

from repro.core.blocker import BlockDecision
from repro.diff import FrameDiffer

#: small pools so URL/content/session collisions (the interesting
#: cases) are common rather than vanishing
_URLS = [f"https://site.example/r{i}.png" for i in range(5)]
_CONTENT_KEYS = ["k-ad", "k-content", "k-other"]
_SESSIONS = ["alice", "bob"]
_PAGES = ["p1", "p2"]


def _model(content_key: str) -> BlockDecision:
    """A deterministic 'classifier': pure function of region content."""
    is_ad = content_key == "k-ad"
    return BlockDecision(
        is_ad=is_ad, probability=0.97 if is_ad else 0.03, from_cache=False
    )


_session = st.sampled_from(_SESSIONS)
_page = st.sampled_from(_PAGES)
_url = st.sampled_from(_URLS)
_content_key = st.sampled_from(_CONTENT_KEYS)

_op_strategy = st.one_of(
    st.tuples(
        st.just("commit"), _session, _page,
        st.dictionaries(_url, _content_key, max_size=5),
    ),
    st.tuples(st.just("remember"), _session, _page, _url, _content_key),
    st.tuples(st.just("recall"), _session, _page, _url, _content_key),
    st.tuples(st.just("reload")),
)


@given(ops=st.lists(_op_strategy, max_size=40))
@settings(max_examples=300, deadline=None)
def test_inheritance_never_flips_a_verdict(ops):
    differ = FrameDiffer()
    #: (session, page) -> {url: content key} the model settled
    reference = {}
    generation = 0
    hits = 0
    for op in ops:
        kind = op[0]
        if kind == "reload":
            generation += 1
            reference.clear()
        elif kind == "commit":
            _, session, page, regions = op
            differ.commit(session, page, {
                url: (key, _model(key)) for url, key in regions.items()
            }, generation=generation)
            reference[(session, page)] = dict(regions)
        elif kind == "remember":
            _, session, page, url, key = op
            differ.remember(session, page, url, key, _model(key),
                            generation=generation)
            reference.setdefault((session, page), {})[url] = key
        else:
            _, session, page, url, key = op
            recalled = differ.recall(session, page, url, key,
                                     generation=generation)
            stored = reference.get((session, page), {}).get(url)
            if stored != key:
                assert recalled is None
                continue
            hits += 1
            expected = _model(key)
            assert recalled == BlockDecision(
                expected.is_ad, expected.probability, from_cache=True
            )
    assert differ.stats.recall_hits == hits
