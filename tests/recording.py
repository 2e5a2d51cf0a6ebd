"""Record a training run's uplink blocks and feedback steps by wrapping module functions, as the bench's tracer does."""

import pytest

from co3 import entropy, feedback, trainer


def train_recorded(config, dataset):
    """``trainer.train``, plus what the run sends and how each memory moves: (metrics, model, streams, history).

    ``streams`` holds every block's ``to_bytes()`` in send order. ``history``
    maps (user, layer) to that memory's (g, g_hat) steps in order; a recorded
    state gets its key by the identity of its final memory with
    ``metrics.final_memory``, so no loop order is assumed. The wrapped
    functions are restored even when training raises.
    """
    streams, steps = [], {}
    encode, update = entropy.encode, feedback.update

    def recording_encode(*args, **kwargs):
        block = encode(*args, **kwargs)
        streams.append(block.to_bytes())
        return block

    def recording_update(state, g, g_hat):
        steps.setdefault(id(state), (state, []))[1].append((g, g_hat))
        return update(state, g, g_hat)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(entropy, "encode", recording_encode)
        mp.setattr(feedback, "update", recording_update)
        metrics, model = trainer.train(config, dataset)
    key_of = {id(memory): key for key, memory in metrics.final_memory.items()}
    history = {key_of[id(state.memory)]: pairs for state, pairs in steps.values()}
    return metrics, model, streams, history
