"""``bounded``: a timeout that is armed only for an await that suspends.

The reference is ``async with asyncio.timeout(t): return await coro``.
Every scenario runs through both and must end alike: the same value or
exception, the same cancellation seen by the inner coroutine, the same
cancellation left pending on the task.  The helper must differ in one
way only: a coroutine that finishes without suspending arms no timer,
so a warm ``place`` frame schedules no ``loop.call_at``.
"""

from __future__ import annotations

import asyncio
import types

from repro.service.server import bounded


async def reference(coro, timeout: float):
    async with asyncio.timeout(timeout):
        return await coro


HELPERS = {"reference": reference, "bounded": bounded}


def outcome(run) -> tuple:
    """``("value", v)`` or ``("raised", type, message)`` of ``run()``."""
    try:
        return ("value", asyncio.run(run()))
    except BaseException as exc:  # CancelledError included
        return ("raised", type(exc), str(exc))


def both(scenario) -> tuple:
    """The scenario's outcome under the reference and under the helper,
    which must be equal; returns it."""
    results = {name: outcome(lambda h=h: scenario(h))
               for name, h in HELPERS.items()}
    assert results["bounded"] == results["reference"]
    return results["bounded"]


def test_a_value_without_suspending():
    async def quick():
        return 7

    assert both(lambda h: h(quick(), 5)) == ("value", 7)


def test_a_value_after_suspending():
    async def slow():
        await asyncio.sleep(0)
        await asyncio.sleep(0.001)
        return 8

    assert both(lambda h: h(slow(), 5)) == ("value", 8)


def test_an_exception_before_suspending():
    async def boom():
        raise ValueError("before")

    assert both(lambda h: h(boom(), 5)) == ("raised", ValueError, "before")


def test_an_exception_after_suspending():
    async def boom():
        await asyncio.sleep(0)
        raise KeyError("after")

    assert both(lambda h: h(boom(), 5)) == ("raised", KeyError, "'after'")


def test_a_timeout_cancels_the_inner_coroutine():
    async def scenario(h):
        seen = []

        async def stall():
            try:
                await asyncio.sleep(10)
            except asyncio.CancelledError:
                seen.append("cancelled")
                raise

        try:
            await h(stall(), 0.02)
        except TimeoutError:
            return seen, asyncio.current_task().cancelling()

    assert both(scenario) == ("value", (["cancelled"], 0))


def test_a_coroutine_that_swallows_its_timeout_returns_its_value():
    async def scenario(h):
        async def stubborn():
            try:
                await asyncio.sleep(10)
            except asyncio.CancelledError:
                return "caught"

        value = await h(stubborn(), 0.02)
        return value, asyncio.current_task().cancelling()

    assert both(scenario) == ("value", ("caught", 0))


def test_outer_cancellation_with_an_armed_timer():
    async def scenario(h):
        seen = []

        async def stall():
            try:
                await asyncio.sleep(10)
            except asyncio.CancelledError:
                seen.append("cancelled")
                raise

        task = asyncio.create_task(h(stall(), 5))
        await asyncio.sleep(0.01)
        task.cancel()
        try:
            await task
        except asyncio.CancelledError:
            return seen, task.cancelled()

    assert both(scenario) == ("value", (["cancelled"], True))


def test_outer_cancellation_without_an_armed_timer():
    """A cancel requested while the coroutine runs its first step, which
    then finishes: the value comes back and the cancellation is left for
    the task's next suspension, as with ``asyncio.timeout``."""
    async def scenario(h):
        async def cancel_self():
            asyncio.current_task().cancel()
            return 9

        value = await h(cancel_self(), 5)
        pending = asyncio.current_task().cancelling()
        try:
            await asyncio.sleep(0)
        except asyncio.CancelledError:
            return value, pending, "delivered"
        return value, pending, "lost"

    assert both(scenario) == ("value", (9, 1, "delivered"))


def test_first_yield_is_handed_on_and_sends_are_forwarded():
    @types.coroutine
    def echo():
        got = yield "first"
        again = yield got
        return ("done", again)

    async def user():
        return await echo()

    async def scenario(h):
        coro = h(user(), 5)
        steps = [coro.send(None), coro.send("a")]
        try:
            coro.send("b")
        except StopIteration as stop:
            steps.append(stop.value)
        return steps

    assert both(scenario) == ("value", ["first", "a", ("done", "b")])


def test_a_throw_is_forwarded():
    @types.coroutine
    def catcher():
        try:
            yield "first"
        except LookupError as exc:
            return f"caught {exc!r}"

    async def user():
        return await catcher()

    async def scenario(h):
        coro = h(user(), 5)
        first = coro.send(None)
        try:
            coro.throw(KeyError("k"))
        except StopIteration as stop:
            return first, stop.value

    assert both(scenario) == ("value", ("first", "caught KeyError('k')"))


def test_close_closes_the_inner_coroutine():
    async def scenario(h):
        seen = []

        async def stall():
            try:
                await asyncio.sleep(10)
            finally:
                seen.append("closed")

        coro = h(stall(), 5)
        suspended_on = coro.send(None)
        coro.close()
        return seen, isinstance(suspended_on, asyncio.Future)

    assert both(scenario) == ("value", (["closed"], True))


def test_a_timeout_that_cannot_be_entered_closes_the_coroutine():
    """Outside a task the timeout cannot be entered: the helper raises
    what ``asyncio.timeout`` raises, and closes the coroutine it has
    already started instead of leaving it suspended."""
    async def main():
        loop = asyncio.get_running_loop()
        seen = []

        async def stall():
            try:
                await loop.create_future()
            finally:
                seen.append("closed")

        done = loop.create_future()

        def outside_a_task():
            coro = bounded(stall(), 5)
            try:
                coro.send(None)
            except RuntimeError as exc:
                done.set_result(str(exc))

        loop.call_soon(outside_a_task)
        return await done, seen

    message, seen = asyncio.run(main())
    assert message == "Timeout should be used inside a task"
    assert seen == ["closed"]


# ------------------------------------------------------------------------
# No timer for an await that does not suspend.
# ------------------------------------------------------------------------

def test_warm_place_frames_arm_no_timer(harness, timeout_timers):
    with harness.client() as client:
        client.request("place", machine="testbox", seed=5,
                       policy="RR_CORE", threads=4)
        with timeout_timers(harness.loop) as timers:
            for threads in range(1, 9):
                client.request("place", machine="testbox", seed=5,
                               policy="RR_CORE", threads=threads)
        assert timers.count == 0
        with timeout_timers(harness.loop) as timers:
            assert client.infer("testbox", seed=6)["cached"] is False
        assert timers.count == 1  # a cold infer suspends: one timer
