"""A Pong-like game at the Atari screen size, standard library only.

The screen is 210 rows x 160 columns, the size the Arcade Learning
Environment renders (Bellemare et al., JAIR 2013). The player's paddle is on
the right, a tracking opponent on the left, and the ball bounces between two
walls. Actions: 0 noop, 1 up, 2 down. Returning the ball scores 0.1, a point
won scores +1 and a point lost -1. Every episode lasts exactly FRAMES frames,
so frames per episode never depend on the controller.

The three colour planes are bytearrays updated in place: each frame erases
and redraws only the ball and the two paddles. The protocol server writes
them to its pipe as they are; the in-process environment scales them by
1/255, exactly as the bridge client scales the bytes it reads.
"""

import random

HEIGHT, WIDTH = 210, 160
FRAMES = 200
TOP, BOTTOM = 34, 194               # playfield rows [TOP, BOTTOM)
PADDLE_H, PADDLE_W = 16, 4
BALL_H, BALL_W = 4, 2
PLAYER_X, OPPONENT_X = 140, 16      # left column of each paddle
PADDLE_SPEED, OPPONENT_SPEED = 4, 3

BACKGROUND = (144, 72, 17)
WALL = (236, 236, 236)
PLAYER = (92, 186, 92)
OPPONENT = (213, 130, 74)
BALL = (236, 236, 236)


class PongCore:
    """Game state plus its three colour planes; deterministic per seed."""

    def __init__(self):
        self.planes = [bytearray(HEIGHT * WIDTH) for _ in range(3)]
        self.frames = 0         # frames advanced over this object's life
        self.played = bytearray()   # every action stepped, in order
        self._drawn = []        # rectangles drawn on the last render
        self.done = True

    def reset(self, seed: int) -> None:
        self._rng = random.Random(seed)
        for plane, bg, wall in zip(self.planes, BACKGROUND, WALL):
            plane[:] = bytes([bg]) * (HEIGHT * WIDTH)
            plane[(TOP - 10) * WIDTH:TOP * WIDTH] = bytes([wall]) * (10 * WIDTH)
            plane[BOTTOM * WIDTH:(BOTTOM + 16) * WIDTH] = bytes([wall]) * (16 * WIDTH)
        self._drawn = []
        self.player_y = self.opponent_y = (TOP + BOTTOM - PADDLE_H) // 2
        self._serve()
        self.t = 0
        self.done = False
        self._render()

    def _serve(self) -> None:
        rng = self._rng
        self.ball_y = rng.randrange(TOP + 20, BOTTOM - 20 - BALL_H)
        self.ball_x = WIDTH // 2
        self.vx = rng.choice((-3, -2, 2, 3))
        self.vy = rng.choice((-2, -1, 1, 2))

    def step(self, action: int) -> tuple[float, bool]:
        if self.done:
            raise RuntimeError("step after episode end")
        if action == 1:
            self.player_y = max(TOP, self.player_y - PADDLE_SPEED)
        elif action == 2:
            self.player_y = min(BOTTOM - PADDLE_H, self.player_y + PADDLE_SPEED)
        target = self.ball_y + BALL_H // 2 - PADDLE_H // 2
        delta = max(-OPPONENT_SPEED, min(OPPONENT_SPEED, target - self.opponent_y))
        self.opponent_y = max(TOP, min(BOTTOM - PADDLE_H, self.opponent_y + delta))

        reward = 0.0
        self.ball_y += self.vy
        if self.ball_y < TOP or self.ball_y > BOTTOM - BALL_H:
            self.vy = -self.vy
            self.ball_y += 2 * self.vy
        self.ball_x += self.vx
        if self.vx > 0 and PLAYER_X - BALL_W < self.ball_x <= PLAYER_X + PADDLE_W \
                and self._hits(self.player_y):
            self.vx = -self.vx
            self.ball_x = PLAYER_X - BALL_W
            reward = 0.1
        elif self.vx < 0 and OPPONENT_X <= self.ball_x < OPPONENT_X + PADDLE_W \
                and self._hits(self.opponent_y):
            self.vx = -self.vx
            self.ball_x = OPPONENT_X + PADDLE_W
        elif self.ball_x >= WIDTH - BALL_W:
            reward = -1.0
            self._serve()
        elif self.ball_x <= 0:
            reward = 1.0
            self._serve()
        self.t += 1
        self.frames += 1
        self.played.append(action)
        self.done = self.t >= FRAMES
        self._render()
        return reward, self.done

    def _hits(self, paddle_y: int) -> bool:
        return paddle_y - BALL_H < self.ball_y < paddle_y + PADDLE_H

    def _render(self) -> None:
        rects = [
            (self.player_y, PADDLE_H, PLAYER_X, PADDLE_W, PLAYER),
            (self.opponent_y, PADDLE_H, OPPONENT_X, PADDLE_W, OPPONENT),
            (self.ball_y, BALL_H, self.ball_x, BALL_W, BALL),
        ]
        for y, h, x, w, _ in self._drawn:
            self._fill(y, h, x, w, BACKGROUND)
        for y, h, x, w, colour in rects:
            self._fill(y, h, x, w, colour)
        self._drawn = rects

    def _fill(self, y: int, h: int, x: int, w: int, colour) -> None:
        for plane, value in zip(self.planes, colour):
            run = bytes([value]) * w
            for row in range(y * WIDTH + x, (y + h) * WIDTH + x, WIDTH):
                plane[row:row + w] = run
